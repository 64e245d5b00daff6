package service

// Cluster glue: how one job manager becomes a member of a DHT-sharded
// simulation cluster (internal/cluster). The division of labor:
//
//   - the cluster.Node owns membership (the exact member set that names
//     every key's owner, liveness, drain politeness) and the replicated
//     blob store;
//   - this file owns the simulation semantics on top of it: a spec
//     crosses nodes one way, whole, to the node that owns its digest
//     (cross-node singleflight — a hot spec simulates exactly once
//     cluster-wide); that node computes whatever its blob store and
//     point LRU lack, and freshly computed points replicate into the
//     DHT as a cooperative cache.
//
// The cluster carries work, not artifacts. A stored trace or platform
// belongs to the node that stored it: a digest resolves only against
// that node's Store. Trace-mode work runs where its trace is, as on a
// standalone node — no forward, its points in the point LRU. Work sent
// to a peer names its platform inline (peerRequest), so the peer needs
// no artifact of this node's.
//
// One copy of a point per node. The planner's point store is the
// node's blob store: a fresh point is held there as its replicated blob
// when the node is in the point's replica set, and the point LRU keeps
// only the others. A grid's points are looked up there, never asked of
// another node: a point some member computed reaches this one only by
// replication, and the rest are computed here.
//
// Replication. One queue (replicator) carries every fresh point bound
// for peers; a run queues its points together when it ends. At most
// clusterReplicators workers drain it, each taking what is queued (up
// to cluster.MaxStoreBlobs) and sending every peer one STORE listing
// the blobs it should hold (cluster.Node.Replicate), so a grid of any
// size costs a bounded number of goroutines. Drain flushes the queue.
//
// Execution arriving over the cluster (the node's Executor) runs inline
// on the serving goroutine and never waits for a manager slot. Slots
// are only held by locally submitted jobs, so no cycle of forwarded
// work can deadlock the slot gates of two saturated nodes — remote work
// is bounded by the engine's own semaphore instead.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// ExecKindScenario labels cluster exec payloads carrying a JSON
// ScenarioRequest: a whole spec forwarded to the owner of its digest.
const ExecKindScenario = "scenario"

// BlobPoint is the kind of every blob the cluster stores: a JSON
// core.ScenarioPoint keyed by its point digest.
const BlobPoint = "point"

// clusterReplicators is the replication queue's worker pool: the most
// goroutines replication ever holds, however many blobs are queued.
// Enqueueing never blocks; blobs wait in the queue.
const clusterReplicators = 4

// replicateTimeout bounds one replication pass; content addressing
// makes a timed-out replica safe to simply lose.
const replicateTimeout = 30 * time.Second

// Service-level cluster instruments, beside the node's own cluster_rpcs
// families (internal/cluster/telemetry.go).
var (
	mClusterPointHits = telemetry.Default().Counter("cluster_remote_point_hits_total",
		"grid points the planner's lookups found in the node's blob store as a peer's STORE delivered them (points the node computed itself are not counted)")
	mReplStores = telemetry.Default().Counter("cluster_replication_stores_total",
		"STORE RPCs the replication queue sent, each listing every queued blob one peer should hold")
	mClusterForwards = telemetry.Default().CounterVec("cluster_forwarded_jobs_total",
		"whole specs forwarded to their owner node, by result (fallback = executed locally after a forward failure)", "result")
	mClusterExecs = telemetry.Default().CounterVec("cluster_execs_served_total",
		"cluster exec requests served for peers, by kind", "kind")
	mClusterReplications = telemetry.Default().CounterVec("cluster_artifact_replications_total",
		"points the replication queue pushed to at least one peer of their replica set, by blob kind", "kind")
)

// attachCluster wires the manager into a cluster node: the node routes
// exec RPCs here, and the manager routes owned-elsewhere work there.
func (m *Manager) attachCluster(n *cluster.Node) {
	m.node = n
	m.repl = &replicator{node: n}
	n.SetExecutor(m.clusterExecutor())
}

// Cluster returns the attached cluster node, or nil when the manager
// serves standalone.
func (m *Manager) Cluster() *cluster.Node { return m.node }

// ---------------------------------------------------------------------------
// Inbound: serving peers

// clusterExecutor is the node's Executor: peers forward whole
// ScenarioRequests here, and the manager serves them through the same
// identity and execution steps as local work (Manager.open, the exec
// kind standing for the route), admitted fromPeer: computed here, never
// forwarded again.
func (m *Manager) clusterExecutor() cluster.Executor {
	return func(ctx context.Context, kind string, payload []byte) ([]byte, error) {
		if kind != ExecKindScenario {
			return nil, fmt.Errorf("service: unknown cluster exec kind %q", kind)
		}
		mClusterExecs.With(kind).Inc()
		j, t, fresh, err := m.open(execRoute, payload, decodeExec, fromPeer)
		switch {
		case err != nil:
			// A draining owner refuses fresh work: the peer falls back to
			// computing locally, so refusing strands no one.
			return nil, err
		case !fresh:
			return j.Wait(ctx)
		}
		// Cancel the job if the serving RPC is abandoned; singleflight
		// attachers share the outcome either way, as with local jobs.
		stop := context.AfterFunc(ctx, j.cancel)
		defer stop()
		r, err := m.execute(j, t, fromPeer, nil)
		return r.body, err
	}
}

// execRoute is the route the body memo keys exec payloads on.
const execRoute = "exec " + ExecKindScenario

// decodeExec decodes a cluster exec payload strictly.
func decodeExec(payload []byte) (Request, error) {
	var req ScenarioRequest
	if err := DecodeStrict(payload, &req); err != nil {
		return nil, fmt.Errorf("service: cluster exec payload: %w", err)
	}
	return req, nil
}

// ---------------------------------------------------------------------------
// Outbound: forwarding whole specs

// forward runs a slotted job on the node that owns its spec digest,
// holding no local slot — the owner's engine does the work — and reports
// whether the owner answered. Any failure returns the job to pending, to
// run locally once it holds a slot: the forward is an optimization for
// cluster-wide exactly-once, never a requirement for availability.
// Trace-mode work never forwards: its trace is here.
func (m *Manager) forward(j *Job, t *task) (reply, bool) {
	if m.node == nil || t.sc.Trace != nil {
		return reply{}, false
	}
	owner := m.node.Owner(t.digest)
	if owner.ID == m.node.Self().ID {
		return reply{}, false
	}
	req, err := t.peerRequest()
	if err != nil {
		return reply{}, false
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return reply{}, false
	}
	j.markRunning()
	out, err := m.node.Exec(j.ctx, owner, ExecKindScenario, payload)
	var r reply
	if err == nil {
		r, err = t.fromOwner(out)
	}
	if err != nil {
		j.requeue()
		mClusterForwards.With("fallback").Inc()
		m.log.LogAttrs(context.Background(), slog.LevelWarn, "cluster forward failed, running locally",
			slog.String("job_id", j.ID()),
			slog.String("spec_digest", t.digest),
			slog.String("owner", owner.Addr),
			slog.String("error", err.Error()))
		return reply{}, false
	}
	mClusterForwards.With("ok").Inc()
	m.log.LogAttrs(context.Background(), slog.LevelInfo, "job served by owner node",
		slog.String("job_id", j.ID()),
		slog.String("spec_digest", t.digest),
		slog.String("owner", owner.Addr))
	return r, true
}

// fromOwner builds the task's reply from the scenario result its spec
// owner returned, which must answer the task's spec with its whole grid.
// The reply is built here as from a local run, so it is byte-identical
// to one, and a scenario reply carries its frame boundaries.
func (t *task) fromOwner(out []byte) (reply, error) {
	var res core.ScenarioResult
	if err := json.Unmarshal(out, &res); err != nil {
		return reply{}, err
	}
	if res.SpecDigest != t.digest || len(res.Points) != t.sc.GridSize() {
		return reply{}, fmt.Errorf("service: owner answered spec %s with %d points", res.SpecDigest, len(res.Points))
	}
	return t.reply(&res)
}

// ---------------------------------------------------------------------------
// Point store

// pointRun returns the scenario one run executes, with the run's point
// store attached, and release, which the caller must call when the run
// ends. Standalone, and for trace-mode work in a cluster, the store is
// the point LRU. Otherwise it is a clusterRun over the node's blob
// store and the LRU, whose release queues the run's fresh points for
// replication.
func (m *Manager) pointRun(t *task) (core.Scenario, func()) {
	sc := *t.sc
	switch {
	case m.points == nil:
		return sc, func() {}
	case m.node == nil || sc.Trace != nil:
		sc.PointCache = scenarioPointStore{m.points}
		return sc, func() {}
	}
	run := &clusterRun{m: m}
	sc.PointCache = run
	return sc, run.release
}

// clusterRun is the planner's point store for one run on a cluster
// node. Lookups read the node's blob store, then the point LRU. A fresh
// point is held in the blob store when the node is in its replica set,
// else in the LRU, and waits in fresh until it is queued for the peers.
type clusterRun struct {
	m     *Manager
	mu    sync.Mutex
	fresh []cluster.Blob
}

// GetPoint implements core.PointCache. A blob-store hit counts as a
// point-cache hit, and as a remote point hit when a peer's STORE
// delivered the blob; the LRU counts its own lookups.
func (r *clusterRun) GetPoint(d string) (core.ScenarioPoint, bool) {
	b, kind, fromPeer, ok := r.m.node.GetCached(d)
	if pt, ok := decodePoint(d, b, kind, ok); ok {
		r.m.clusterPointHits.Add(1)
		if fromPeer {
			mClusterPointHits.Inc()
		}
		return pt, true
	}
	return r.m.points.Get(d)
}

// PutPoint implements core.PointCache.
func (r *clusterRun) PutPoint(d string, pt core.ScenarioPoint) {
	b, err := json.Marshal(pt)
	if err != nil {
		r.m.points.Put(d, pt)
		return
	}
	blob := cluster.Blob{Key: d, Kind: BlobPoint, Value: b}
	if !r.m.node.Hold(blob) {
		r.m.points.Put(d, pt)
	}
	r.mu.Lock()
	r.fresh = append(r.fresh, blob)
	var full []cluster.Blob
	if len(r.fresh) >= cluster.MaxStoreBlobs {
		full, r.fresh = r.fresh, nil
	}
	r.mu.Unlock()
	if full != nil {
		r.m.repl.enqueue(full)
	}
}

// release queues the run's remaining fresh points for replication.
func (r *clusterRun) release() {
	r.mu.Lock()
	fresh := r.fresh
	r.fresh = nil
	r.mu.Unlock()
	r.m.repl.enqueue(fresh)
}

// decodePoint accepts a point blob only if it is the point stored under
// its key: a misfiled or stale blob must never be served as another
// grid point's row.
func decodePoint(digest string, b []byte, kind string, ok bool) (core.ScenarioPoint, bool) {
	var pt core.ScenarioPoint
	if !ok || kind != BlobPoint || json.Unmarshal(b, &pt) != nil || pt.Digest != digest {
		return core.ScenarioPoint{}, false
	}
	return pt, true
}

// peerRequest is the task's request as a peer receives it: a platform
// named by digest travels as the resolved platform's document, which
// digests the same, because the digest resolves only on the node that
// stored it. A degradations block travels unchanged: applying it again
// replaces the document's fault spec with itself.
func (t *task) peerRequest() (ScenarioRequest, error) {
	req := t.req
	if req.Platform == nil || req.Platform.Digest == "" {
		return req, nil
	}
	var doc bytes.Buffer
	if err := t.sc.Platform.WriteJSON(&doc); err != nil {
		return ScenarioRequest{}, err
	}
	req.Platform = &PlatformSpec{Inline: doc.Bytes()}
	return req, nil
}

// ---------------------------------------------------------------------------
// Replication

// replicator is the cluster's one replication queue. Enqueueing appends
// and starts a worker if fewer than clusterReplicators run; a worker
// takes up to cluster.MaxStoreBlobs queued blobs at a time and sends
// them with one Node.Replicate — one STORE per peer — until the queue
// is empty, then exits, so an idle manager holds no replication
// goroutine. Drain flushes it: a departing node never strands results
// it promised to the cooperative cache.
type replicator struct {
	node    *cluster.Node
	mu      sync.Mutex
	queue   []cluster.Blob
	workers int
	// pending counts blobs queued or being stored; idle is closed when
	// it returns to zero.
	pending int
	idle    chan struct{}
}

// enqueue queues blobs for their replica sets' peers. It never blocks.
func (q *replicator) enqueue(blobs []cluster.Blob) {
	if len(blobs) == 0 {
		return
	}
	q.mu.Lock()
	q.queue = append(q.queue, blobs...)
	if q.pending == 0 {
		q.idle = make(chan struct{})
	}
	q.pending += len(blobs)
	start := q.workers < clusterReplicators
	if start {
		q.workers++
	}
	q.mu.Unlock()
	if start {
		go q.work()
	}
}

// work sends queued blobs until the queue is empty.
func (q *replicator) work() {
	for {
		q.mu.Lock()
		if len(q.queue) == 0 {
			q.workers--
			q.mu.Unlock()
			return
		}
		n := min(len(q.queue), cluster.MaxStoreBlobs)
		batch := append([]cluster.Blob(nil), q.queue[:n]...)
		clear(q.queue[:n]) // the queue's array must not pin sent blobs
		q.queue = q.queue[n:]
		q.mu.Unlock()

		ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
		acks, stores := q.node.Replicate(ctx, batch)
		cancel()
		mReplStores.Add(uint64(stores))
		for i, b := range batch {
			if acks[i] > 0 {
				mClusterReplications.With(b.Kind).Inc()
			}
		}

		q.mu.Lock()
		q.pending -= len(batch)
		if q.pending == 0 {
			close(q.idle)
		}
		q.mu.Unlock()
	}
}

// queued reports how many blobs are queued or being stored; a
// standalone manager's nil queue holds none.
func (q *replicator) queued() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending
}

// flush waits until every queued blob has been sent, or ctx ends; a
// standalone manager's nil queue is always flushed.
func (q *replicator) flush(ctx context.Context) error {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	idle := q.idle
	pending := q.pending
	q.mu.Unlock()
	if pending == 0 {
		return nil
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}
