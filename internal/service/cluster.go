package service

// Cluster glue: how one job manager becomes a member of a DHT-sharded
// simulation cluster (internal/cluster). The division of labor:
//
//   - the cluster.Node owns membership (the exact member set that names
//     every key's owner, liveness, drain politeness) and the replicated
//     blob store;
//   - this file owns the simulation semantics on top of it: whole specs
//     forward to the node that owns their digest (cross-node
//     singleflight — a hot spec simulates exactly once cluster-wide),
//     a scenario grid sends each remote owner one spec covering exactly
//     the points it owns, freshly computed points replicate back into
//     the DHT as a cooperative cache, and uploaded artifacts (traces,
//     platforms) replicate so any member can serve a spec that
//     references them.
//
// Per-owner fan-out. A grid run on this node groups the points it lacks
// by owner and sends each remote owner one EXEC: the pinned spec for a
// lone point, else the request with every axis narrowed to the owner's
// coordinates and zipped into one group, so the owner's grid is exactly
// its points, each under its own point digest. No FIND_VALUE goes first:
// the owner heads every replica set, so it holds any point computed
// anywhere before. Work that arrives from a peer never fans out again;
// its node computes what its blob store lacks. Two concurrent grids
// that overlap send different owner specs, so, as on a standalone node,
// they may both compute a shared point; identical specs still run once.
//
// One copy of a point per node. The planner's point store is the
// node's blob store: a fresh point is held there as its replicated blob
// when the node is in the point's replica set, and the point LRU keeps
// only the others. Points a run fetched from their owners reach its
// planner through a per-run overlay (clusterRun) and are not kept
// beyond it; the owner replicates them to the replica set.
//
// Replication. One queue (replicator) carries every blob bound for
// peers: uploaded traces, resolved platforms, and fresh points, which a
// run queues together when it ends. At most clusterReplicators workers
// drain it, each taking what is queued (up to cluster.MaxStoreBlobs)
// and sending every peer one STORE listing the blobs it should hold
// (cluster.Node.Replicate), so a grid of any size costs a bounded
// number of goroutines. Drain flushes the queue.
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
	"repro/internal/network"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ExecKindScenario labels cluster exec payloads carrying a JSON
// ScenarioRequest — both whole forwarded specs and per-owner fan-out
// requests travel under it.
const ExecKindScenario = "scenario"

// Blob kinds stored in the DHT. Everything is keyed by content digest,
// so replicas are self-verifying in principle; the kind label routes
// decoding.
const (
	// BlobTrace is a trace in the binary codec (trace.WriteBinary).
	BlobTrace = "trace"
	// BlobPlatform is a platform JSON document.
	BlobPlatform = "platform"
	// BlobPoint is a JSON core.ScenarioPoint keyed by its point digest.
	BlobPoint = "point"
)

// clusterFanout bounds how many owners one grid run asks concurrently.
const clusterFanout = 4

// clusterReplicators is the replication queue's worker pool: the most
// goroutines replication ever holds, however many blobs are queued.
// Enqueueing never blocks; blobs wait in the queue.
const clusterReplicators = 4

// ownerZip is the zip group an owner's narrowed spec puts every axis in.
const ownerZip = "owner"

// replicateTimeout bounds one replication pass; content addressing
// makes a timed-out replica safe to simply lose.
const replicateTimeout = 30 * time.Second

// Service-level cluster instruments, beside the node's own cluster_rpcs
// families (internal/cluster/telemetry.go).
var (
	mClusterPointHits = telemetry.Default().Counter("cluster_remote_point_hits_total",
		"grid points a run found in the node's blob store (replicated by the cluster) before planning")
	mClusterFanout = telemetry.Default().CounterVec("cluster_point_fanout_total",
		"grid points fanned out to their remote owner node, by result", "result")
	mReplStores = telemetry.Default().Counter("cluster_replication_stores_total",
		"STORE RPCs the replication queue sent, each listing every queued blob one peer should hold")
	mClusterForwards = telemetry.Default().CounterVec("cluster_forwarded_jobs_total",
		"whole specs forwarded to their owner node, by result (fallback = executed locally after a forward failure)", "result")
	mClusterExecs = telemetry.Default().CounterVec("cluster_execs_served_total",
		"cluster exec requests served for peers, by kind", "kind")
	mClusterReplications = telemetry.Default().CounterVec("cluster_artifact_replications_total",
		"artifacts the replication queue pushed to at least one peer of their replica set, by kind", "kind")
	mClusterFetches = telemetry.Default().CounterVec("cluster_artifact_fetches_total",
		"artifacts fetched from the cluster to satisfy a forwarded spec, by kind and result", "kind", "result")
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

// clusterExecutor is the node's Executor: peers send ScenarioRequests
// here (whole forwarded specs and per-owner point sets alike), and the
// manager serves them through the same identity and execution steps as
// local work, admitted fromPeer: computed here, never fanned out again.
func (m *Manager) clusterExecutor() cluster.Executor {
	return func(ctx context.Context, kind string, payload []byte) ([]byte, error) {
		if kind != ExecKindScenario {
			return nil, fmt.Errorf("service: unknown cluster exec kind %q", kind)
		}
		mClusterExecs.With(kind).Inc()
		var req ScenarioRequest
		dec := json.NewDecoder(bytes.NewReader(payload))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("service: cluster exec payload: %w", err)
		}
		m.fetchScenarioArtifacts(ctx, req)
		t, err := m.prepare(req)
		if err != nil {
			return nil, err
		}
		j, fresh, err := m.begin(t, fromPeer)
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
		return m.execute(j, t, fromPeer, nil)
	}
}

// fetchScenarioArtifacts read-throughs any artifacts a peer's spec
// references by digest but this store lacks — the replica set holds
// them if the uploading node replicated successfully. Best effort: a
// miss surfaces later as the usual unknown-digest error.
func (m *Manager) fetchScenarioArtifacts(ctx context.Context, req ScenarioRequest) {
	if m.node == nil {
		return
	}
	if req.Trace != "" && !m.store.ContainsTrace(req.Trace) {
		if b, kind, ok := m.node.Get(ctx, req.Trace); ok && kind == BlobTrace {
			if tr, err := trace.ReadAny(bytes.NewReader(b)); err == nil {
				if _, err := m.store.PutTrace(tr); err == nil {
					mClusterFetches.With(BlobTrace, "ok").Inc()
				} else {
					mClusterFetches.With(BlobTrace, "error").Inc()
				}
			} else {
				mClusterFetches.With(BlobTrace, "error").Inc()
			}
		} else {
			mClusterFetches.With(BlobTrace, "miss").Inc()
		}
	}
	if req.Platform != nil && req.Platform.Digest != "" {
		if _, err := m.store.GetPlatform(req.Platform.Digest); err != nil {
			if b, kind, ok := m.node.Get(ctx, req.Platform.Digest); ok && kind == BlobPlatform {
				if p, err := network.ReadAnyPlatform(bytes.NewReader(b)); err == nil {
					if _, err := m.store.PutPlatform(p); err == nil {
						mClusterFetches.With(BlobPlatform, "ok").Inc()
					} else {
						mClusterFetches.With(BlobPlatform, "error").Inc()
					}
				} else {
					mClusterFetches.With(BlobPlatform, "error").Inc()
				}
			} else {
				mClusterFetches.With(BlobPlatform, "miss").Inc()
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Outbound: forwarding whole specs

// forward runs a slotted job on the node that owns its spec digest,
// holding no local slot — the owner's engine does the work — and reports
// whether the owner answered. A scenario reply is the owner's bytes
// verbatim; a per-kind reply renders here from the owner's scenario
// result, byte-identical to rendering it from a local run. Any failure
// leaves the job to run locally: the forward is an optimization for
// cluster-wide exactly-once, never a requirement for availability.
func (m *Manager) forward(j *Job, t *task) ([]byte, bool) {
	if m.node == nil {
		return nil, false
	}
	owner := m.node.Owner(t.digest)
	if owner.ID == m.node.Self().ID {
		return nil, false
	}
	payload, err := json.Marshal(t.req)
	if err != nil {
		return nil, false
	}
	j.markRunning()
	out, err := m.node.Exec(j.ctx, owner, ExecKindScenario, payload)
	if err == nil && t.kind != KindScenario {
		var res core.ScenarioResult
		if err = json.Unmarshal(out, &res); err == nil {
			if res.SpecDigest != t.digest || len(res.Points) != t.sc.GridSize() {
				err = fmt.Errorf("service: owner answered spec %s with %d points", res.SpecDigest, len(res.Points))
			} else {
				out, err = t.reply(&res)
			}
		}
	}
	if err != nil {
		mClusterForwards.With("fallback").Inc()
		m.log.LogAttrs(context.Background(), slog.LevelWarn, "cluster forward failed, running locally",
			slog.String("job_id", j.ID()),
			slog.String("spec_digest", t.digest),
			slog.String("owner", owner.Addr),
			slog.String("error", err.Error()))
		return nil, false
	}
	mClusterForwards.With("ok").Inc()
	m.log.LogAttrs(context.Background(), slog.LevelInfo, "job served by owner node",
		slog.String("job_id", j.ID()),
		slog.String("spec_digest", t.digest),
		slog.String("owner", owner.Addr))
	return out, true
}

// ---------------------------------------------------------------------------
// Point store and fan-out

// pointRun returns the scenario one run executes, with the run's point
// store attached, and release, which the caller must call when the run
// ends. Standalone the store is the point LRU. In a cluster it is a
// clusterRun: a slotted run first resolves the grid points this node
// lacks from their owners (one EXEC per owner); a run from a peer
// never fans out. release queues the run's fresh points for
// replication.
func (m *Manager) pointRun(ctx context.Context, t *task, mode admission) (core.Scenario, func()) {
	sc := *t.sc
	switch {
	case m.points == nil:
		return sc, func() {}
	case m.node == nil:
		sc.PointCache = scenarioPointStore{m.points}
		return sc, func() {}
	}
	run := &clusterRun{m: m}
	if mode == slotted {
		run.prefetch(ctx, t.req, &sc)
	}
	sc.PointCache = run
	return sc, run.release
}

// clusterRun is the planner's point store for one run on a cluster
// node. Lookups read the points this run resolved before planning
// (fetched), then the node's blob store, then the point LRU. A fresh
// point is held in the blob store when the node is in its replica set,
// else in the LRU, and waits in fresh until it is queued for the peers.
type clusterRun struct {
	m       *Manager
	mu      sync.Mutex
	fetched map[string]core.ScenarioPoint
	fresh   []cluster.Blob
}

// GetPoint implements core.PointCache. A hit from fetched or the blob
// store counts as a point-cache hit; the LRU counts its own lookups.
func (r *clusterRun) GetPoint(d string) (core.ScenarioPoint, bool) {
	r.mu.Lock()
	pt, ok := r.fetched[d]
	r.mu.Unlock()
	if !ok {
		pt, ok = r.m.heldPoint(d)
	}
	if ok {
		r.m.clusterPointHits.Add(1)
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

// heldPoint reads a point from the node's blob store.
func (m *Manager) heldPoint(d string) (core.ScenarioPoint, bool) {
	b, kind, ok := m.node.GetCached(d)
	return decodePoint(d, b, kind, ok)
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

// prefetch runs before a slotted grid plans: each point the blob store
// holds goes to fetched, and the points neither store holds are grouped
// by owner; each remote owner then gets one EXEC for its group. Points
// this node owns are left for the planner. Everything here is best
// effort: any failure leaves the points to the local planner.
func (r *clusterRun) prefetch(ctx context.Context, req ScenarioRequest, sc *core.Scenario) {
	keys, err := sc.PointKeys()
	if err != nil || len(keys) <= 1 {
		// A one-point spec is routed whole by the spec forwarder.
		return
	}
	m := r.m
	self := m.node.Self().ID
	type group struct {
		owner cluster.Contact
		keys  []core.PointKey
	}
	var groups []*group
	byOwner := map[cluster.ID]*group{}
	seen := make(map[string]bool, len(keys))
	r.fetched = map[string]core.ScenarioPoint{}
	for _, k := range keys {
		if seen[k.Digest] {
			continue
		}
		seen[k.Digest] = true
		if pt, ok := m.heldPoint(k.Digest); ok {
			r.fetched[k.Digest] = pt
			mClusterPointHits.Inc()
			continue
		}
		if m.points.Contains(k.Digest) {
			continue
		}
		owner := m.node.Owner(k.Digest)
		if owner.ID == self {
			continue
		}
		g := byOwner[owner.ID]
		if g == nil {
			g = &group{owner: owner}
			byOwner[owner.ID] = g
			groups = append(groups, g)
		}
		g.keys = append(g.keys, k)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, clusterFanout)
	for _, g := range groups {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r.fetch(ctx, req, g.owner, g.keys)
		}()
	}
	wg.Wait()
}

// fetch asks one owner to compute (or serve) its points of the grid and
// adds them to fetched. An answer that is not exactly those points, in
// order, means the owner and this node disagree about the spec: it is
// dropped and the points are computed here.
func (r *clusterRun) fetch(ctx context.Context, req ScenarioRequest, owner cluster.Contact, keys []core.PointKey) {
	fail := func(err error) {
		mClusterFanout.With("error").Add(uint64(len(keys)))
		r.m.log.LogAttrs(context.Background(), slog.LevelDebug, "point fan-out failed, computing locally",
			slog.Int("points", len(keys)),
			slog.String("owner", owner.Addr),
			slog.String("error", err.Error()))
	}
	oreq, err := ownerScenarioRequest(req, keys)
	if err != nil {
		fail(err)
		return
	}
	payload, err := json.Marshal(oreq)
	if err != nil {
		fail(err)
		return
	}
	out, err := r.m.node.Exec(ctx, owner, ExecKindScenario, payload)
	if err != nil {
		fail(err)
		return
	}
	var res core.ScenarioResult
	if err := json.Unmarshal(out, &res); err != nil {
		fail(err)
		return
	}
	if len(res.Points) != len(keys) {
		fail(fmt.Errorf("service: owner answered %d of %d points", len(res.Points), len(keys)))
		return
	}
	for i, pt := range res.Points {
		if pt.Digest != keys[i].Digest {
			fail(fmt.Errorf("service: owner answered point %s for %s", pt.Digest, keys[i].Digest))
			return
		}
	}
	r.mu.Lock()
	for _, pt := range res.Points {
		r.fetched[pt.Digest] = pt
	}
	r.mu.Unlock()
	mClusterFanout.With("ok").Add(uint64(len(keys)))
}

// ownerScenarioRequest narrows a scenario request to the given grid
// points, in order. A lone point pins every axis to a singleton; more
// points list their coordinates on every axis, zipped into one group,
// so the narrowed grid is exactly those points — canonicalization keeps
// a zipped list's order and repeats. The coordinate labels are the
// canonical spellings, which core.AxisOf reads back, so every point keeps
// its digest, and a pinned spec's digest IS its point digest: the
// invariant that makes point keys route consistently.
func ownerScenarioRequest(r ScenarioRequest, keys []core.PointKey) (ScenarioRequest, error) {
	axes := make([]core.Axis, len(keys[0].Coords))
	labels := make([]string, len(keys))
	for i := range axes {
		for j, k := range keys {
			labels[j] = k.Coords[i].Value
		}
		ax, err := core.AxisOf(keys[0].Coords[i].Axis, labels)
		if err != nil {
			return ScenarioRequest{}, fmt.Errorf("service: pin axis: %w", err)
		}
		if len(keys) > 1 {
			ax.Zip = ownerZip
		}
		axes[i] = ax
	}
	r.Axes = axes
	return r, nil
}

// ---------------------------------------------------------------------------
// Replication

// ReplicateTrace pushes a stored trace into its DHT replica set (called
// after uploads). No-op without a cluster or when this node already
// holds it.
func (m *Manager) ReplicateTrace(digest string, tr *trace.Trace) {
	if m.node == nil || m.node.Has(digest) {
		return
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		return
	}
	m.replicate(cluster.Blob{Key: digest, Kind: BlobTrace, Value: buf.Bytes()})
}

// replicatePlatform pushes a resolved platform into the DHT so peers
// can serve specs referencing its digest. Platforms are a few hundred
// bytes; the check for a held copy makes repeat resolves free.
func (m *Manager) replicatePlatform(digest string, p network.Platform) {
	if m.node == nil || m.node.Has(digest) {
		return
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		return
	}
	m.replicate(cluster.Blob{Key: digest, Kind: BlobPlatform, Value: buf.Bytes()})
}

// replicate holds an artifact on this node (when it is in the replica
// set) and queues it for the peers.
func (m *Manager) replicate(b cluster.Blob) {
	m.node.Hold(b)
	m.repl.enqueue([]cluster.Blob{b})
}

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
