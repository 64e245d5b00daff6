package service

// Cluster glue: how one job manager becomes a member of a DHT-sharded
// simulation cluster (internal/cluster). The division of labor:
//
//   - the cluster.Node owns membership (routing table, liveness, drain
//     politeness) and the replicated blob store;
//   - this file owns the simulation semantics on top of it: whole specs
//     forward to the node that owns their digest (cross-node
//     singleflight — a hot spec simulates exactly once cluster-wide),
//     scenario grids fan individual points out to their owner nodes,
//     freshly computed points replicate back into the DHT as a
//     cooperative cache, and uploaded artifacts (traces, platforms)
//     replicate so any member can serve a spec that references them.
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
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ExecKindScenario labels cluster exec payloads carrying a JSON
// ScenarioRequest — both whole forwarded specs and pinned single-point
// fan-out requests travel under it.
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

// clusterFanout bounds how many grid points one scenario prefetches
// from the cluster concurrently (lookups and remote executions alike).
const clusterFanout = 4

// clusterReplicators bounds the background replication goroutines; the
// queue beyond it applies backpressure to PutPoint callers only in the
// sense that spawning waits, never that results are dropped.
const clusterReplicators = 4

// replicateTimeout bounds one background replication; content
// addressing makes a timed-out replica safe to simply lose.
const replicateTimeout = 30 * time.Second

// Service-level cluster instruments, beside the node's own cluster_rpcs
// families (internal/cluster/telemetry.go).
var (
	mClusterPointHits = telemetry.Default().Counter("cluster_remote_point_hits_total",
		"grid points served from the cluster's cooperative point cache instead of simulating")
	mClusterFanout = telemetry.Default().CounterVec("cluster_point_fanout_total",
		"grid points fanned out to their remote owner node, by result", "result")
	mClusterForwards = telemetry.Default().CounterVec("cluster_forwarded_jobs_total",
		"whole specs forwarded to their owner node, by result (fallback = executed locally after a forward failure)", "result")
	mClusterExecs = telemetry.Default().CounterVec("cluster_execs_served_total",
		"cluster exec requests served for peers, by kind", "kind")
	mClusterReplications = telemetry.Default().CounterVec("cluster_artifact_replications_total",
		"artifacts pushed into the DHT's replica sets, by kind", "kind")
	mClusterFetches = telemetry.Default().CounterVec("cluster_artifact_fetches_total",
		"artifacts fetched from the cluster to satisfy a forwarded spec, by kind and result", "kind", "result")
)

// attachCluster wires the manager into a cluster node: the node routes
// exec RPCs here, and the manager routes owned-elsewhere work there.
func (m *Manager) attachCluster(n *cluster.Node) {
	m.node = n
	m.replSem = make(chan struct{}, clusterReplicators)
	n.SetExecutor(m.clusterExecutor())
}

// Cluster returns the attached cluster node, or nil when the manager
// serves standalone.
func (m *Manager) Cluster() *cluster.Node { return m.node }

// ---------------------------------------------------------------------------
// Inbound: serving peers

// clusterExecutor is the node's Executor: peers send ScenarioRequests
// here (whole forwarded specs and pinned single points alike), and the
// manager serves them through the same identity and execution steps as
// local work, admitted fromPeer.
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
			if tr, err := decodeTrace(b); err == nil {
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
// Point fan-out

// clusterPrefetchPoints runs before a scenario grid executes: for every
// grid point this node does not own, it tries the cooperative cache
// and then asks the point's owner to simulate it, feeding hits into the
// local point cache so the planner schedules no engine work for them.
// Self-owned points are left for the grid run (recursion terminates
// because a pinned single-point spec's digest IS its point digest, so
// its owner always computes it locally). Everything here is best
// effort: any failure leaves the point to the local planner.
func (m *Manager) clusterPrefetchPoints(ctx context.Context, r ScenarioRequest, sc *core.Scenario) {
	if m.node == nil || m.points == nil {
		return
	}
	keys, err := sc.PointKeys()
	if err != nil || len(keys) <= 1 {
		// A single-point spec is routed whole by the spec forwarder;
		// fanning it out again would be a cycle.
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, clusterFanout)
	for _, k := range keys {
		if _, ok := m.points.Get(k.Digest); ok {
			continue
		}
		// A replicated copy already on this node is free to use whether or
		// not we own the point.
		b, kind, ok := m.node.GetCached(k.Digest)
		if pt, ok := decodePoint(k.Digest, b, kind, ok); ok {
			m.points.Put(k.Digest, pt)
			mClusterPointHits.Inc()
			continue
		}
		owner := m.node.Owner(k.Digest)
		if owner.ID == m.node.Self().ID {
			continue // ours: the grid run computes it
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(k core.PointKey, owner cluster.Contact) {
			defer wg.Done()
			defer func() { <-sem }()
			m.fetchRemotePoint(ctx, r, k, owner)
		}(k, owner)
	}
	wg.Wait()
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

// fetchRemotePoint resolves one remote-owned grid point: cluster
// lookup first (someone may have computed it already), then an exec on
// its owner with the pinned single-point spec.
func (m *Manager) fetchRemotePoint(ctx context.Context, r ScenarioRequest, k core.PointKey, owner cluster.Contact) {
	b, kind, ok := m.node.Get(ctx, k.Digest)
	if pt, ok := decodePoint(k.Digest, b, kind, ok); ok {
		m.points.Put(k.Digest, pt)
		mClusterPointHits.Inc()
		return
	}
	preq, err := pinnedScenarioRequest(r, k.Coords)
	if err != nil {
		mClusterFanout.With("error").Inc()
		return
	}
	payload, err := json.Marshal(preq)
	if err != nil {
		mClusterFanout.With("error").Inc()
		return
	}
	out, err := m.node.Exec(ctx, owner, ExecKindScenario, payload)
	if err != nil {
		mClusterFanout.With("error").Inc()
		m.log.LogAttrs(context.Background(), slog.LevelDebug, "point fan-out failed, computing locally",
			slog.String("point_digest", k.Digest),
			slog.String("owner", owner.Addr),
			slog.String("error", err.Error()))
		return
	}
	var res core.ScenarioResult
	if err := json.Unmarshal(out, &res); err != nil || len(res.Points) != 1 || res.Points[0].Digest != k.Digest {
		// A result that is not exactly our point means the owner and we
		// disagree about the spec — recompute locally rather than cache a
		// wrong row.
		mClusterFanout.With("error").Inc()
		return
	}
	// The owner's PutPoint already replicated the blob; feed only the
	// local planner cache here.
	m.points.Put(k.Digest, res.Points[0])
	mClusterFanout.With("ok").Inc()
}

// pinnedScenarioRequest narrows a scenario request to one grid point:
// every axis becomes a singleton holding that point's coordinate. The
// coordinate labels are the canonical spellings (core.Axis.labels), so
// parsing them back yields a spec whose digest is exactly the point
// digest — the invariant that makes point keys route consistently.
func pinnedScenarioRequest(r ScenarioRequest, coords []core.Coord) (ScenarioRequest, error) {
	axes := make([]core.Axis, len(coords))
	for i, c := range coords {
		ax := core.Axis{Kind: c.Axis}
		switch c.Axis {
		case core.AxisBandwidth, core.AxisLatency, core.AxisDerate, core.AxisJitter:
			v, err := strconv.ParseFloat(c.Value, 64)
			if err != nil {
				return ScenarioRequest{}, fmt.Errorf("service: pin axis %q: %w", c.Axis, err)
			}
			ax.Values = []float64{v}
		case core.AxisMapping:
			ax.Mappings = []string{c.Value}
		default:
			n, err := strconv.Atoi(c.Value)
			if err != nil {
				return ScenarioRequest{}, fmt.Errorf("service: pin axis %q: %w", c.Axis, err)
			}
			ax.Counts = []int{n}
		}
		axes[i] = ax
	}
	r.Axes = axes
	return r, nil
}

// ---------------------------------------------------------------------------
// Replication

// clusterPointStore wraps the planner-facing point cache: every freshly
// computed point also replicates (asynchronously, bounded) into the
// DHT, which is what makes a rerun against a different node
// cache-served instead of re-simulated.
type clusterPointStore struct {
	scenarioPointStore
	m *Manager
}

func (s clusterPointStore) PutPoint(d string, pt core.ScenarioPoint) {
	s.scenarioPointStore.PutPoint(d, pt)
	if b, err := json.Marshal(pt); err == nil {
		s.m.replicateAsync(d, BlobPoint, b)
	}
}

// ReplicateTrace pushes a stored trace into its DHT replica set (called
// after uploads). No-op without a cluster or when the replica set
// already holds it locally.
func (m *Manager) ReplicateTrace(digest string, tr *trace.Trace) {
	if m.node == nil || m.node.Has(digest) {
		return
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		return
	}
	m.replicateAsync(digest, BlobTrace, buf.Bytes())
}

// replicatePlatform pushes a resolved platform into the DHT so peers
// can serve specs referencing its digest. Platforms are a few hundred
// bytes; replicating on every resolve is cheap and idempotent.
func (m *Manager) replicatePlatform(digest string, p network.Platform) {
	if m.node == nil || m.node.Has(digest) {
		return
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		return
	}
	m.replicateAsync(digest, BlobPlatform, buf.Bytes())
}

// replicateAsync stores a blob to its key's replica set in the
// background, bounded by clusterReplicators. Drain flushes the
// outstanding set — a departing node never strands results it promised
// to the cooperative cache.
func (m *Manager) replicateAsync(key, kind string, value []byte) {
	if m.node == nil {
		return
	}
	m.replWG.Add(1)
	go func() {
		defer m.replWG.Done()
		// The semaphore bounds in-flight stores without blocking the
		// computing goroutine that handed us the blob.
		m.replSem <- struct{}{}
		defer func() { <-m.replSem }()
		ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
		defer cancel()
		if m.node.Store(ctx, key, kind, value) > 0 {
			mClusterReplications.With(kind).Inc()
		}
	}()
}

// flushReplications waits for outstanding background replications.
func (m *Manager) flushReplications(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		m.replWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}
