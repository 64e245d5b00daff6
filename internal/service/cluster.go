package service

// Cluster glue: how one job manager becomes a member of a DHT-sharded
// simulation cluster (internal/cluster). The division of labor:
//
//   - the cluster.Node owns membership (the exact member set that names
//     every key's owner, liveness, drain politeness);
//   - this file owns the simulation semantics on top of it: a spec
//     crosses nodes one way, whole, to the node that owns its digest
//     (cross-node singleflight — a hot spec simulates exactly once
//     cluster-wide), and that node computes whatever its point LRU
//     lacks.
//
// The cluster carries work and membership, not values. A point lives in
// the point LRU of the member that computed it, as on a standalone
// node: no member stores a point for another or reads one from another.
// A stored trace or platform belongs to the node that stored it: a
// digest resolves only against that node's Store. Trace-mode work runs
// where its trace is, as on a standalone node — no forward. Work sent to
// a peer names its platform inline (peerRequest), so the peer needs no
// artifact of this node's.
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

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// ExecKindScenario labels cluster exec payloads carrying a JSON
// ScenarioRequest: a whole spec forwarded to the owner of its digest.
const ExecKindScenario = "scenario"

// Service-level cluster instruments, beside the node's own cluster_rpcs
// families (internal/cluster/telemetry.go).
var (
	mClusterForwards = telemetry.Default().CounterVec("cluster_forwarded_jobs_total",
		"whole specs forwarded to their owner node, by result (fallback = executed locally after a forward failure)", "result")
	mClusterExecs = telemetry.Default().CounterVec("cluster_execs_served_total",
		"cluster exec requests served for peers, by kind", "kind")
)

// attachCluster wires the manager into a cluster node: the node routes
// exec RPCs here, and the manager routes owned-elsewhere work there.
func (m *Manager) attachCluster(n *cluster.Node) {
	m.node = n
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
