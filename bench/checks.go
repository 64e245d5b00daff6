package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/tracer"
)

// The correctness checks run after the window, on calls whose bodies
// were kept, against freshly built references. Rerun, superset and upload
// checks run inline as responses arrive (see bench.do).

// check runs the workload's checks; failures land in b.fails.
func (b *bench) check(ctx context.Context, nOps int) {
	switch b.w.name {
	case "sweep-grid", "cold-specs":
		b.checkStreamBatch(ctx, nOps)
	case "big-point":
		b.checkPDES(ctx, nOps)
	case "cluster-3node":
		b.checkStandalone(ctx, nOps)
	}
	b.checkCore(ctx, nOps)
}

// freshBytes computes a request's response on a new manager with both
// caches off, sharing eng's trace cache.
func freshBytes(ctx context.Context, eng *engine.Engine, shards int, req service.Request) ([]byte, error) {
	m, err := service.NewManager(service.Options{Engine: eng, CacheEntries: -1, PointCacheEntries: -1, ReplayShards: shards})
	if err != nil {
		return nil, err
	}
	job, err := m.Submit(req)
	if err != nil {
		return nil, err
	}
	return job.Wait(ctx)
}

// freshStream streams a scenario from a new manager behind its own HTTP
// server and reassembles the frames into the batch form.
func freshStream(ctx context.Context, eng *engine.Engine, req service.ScenarioRequest) ([]byte, error) {
	m, err := service.NewManager(service.Options{Engine: eng, CacheEntries: -1, PointCacheEntries: -1})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(service.NewHandler(m))
	defer srv.Close()
	s, err := client.New(srv.URL, srv.Client()).ScenarioStream(ctx, req)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res := core.ScenarioResult{ScenarioHeader: s.Header()}
	for {
		pt, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return json.Marshal(res)
}

// pick returns up to k of idx, spread from first to last.
func pick(idx []int, k int) []int {
	if len(idx) <= k {
		return idx
	}
	out := make([]int, k)
	for i := range out {
		out[i] = idx[i*(len(idx)-1)/(k-1)]
	}
	return out
}

// checkStreamBatch: a streamed spec's frames equal a fresh batch run's
// bytes, and a batch spec's bytes equal a fresh stream's frames.
func (b *bench) checkStreamBatch(ctx context.Context, nOps int) {
	eng := b.st.nodes[0].eng
	for _, idx := range pick(b.keptCalls(nOps, kindStream), 3) {
		want, err := freshBytes(ctx, eng, 0, *b.callAt(idx).Scenario)
		if err != nil {
			b.fail("stream==batch call %d: %v", idx, err)
		} else if !bytes.Equal(want, b.results[idx].body) {
			b.fail("stream==batch call %d: streamed frames differ from a fresh batch run", idx)
		}
	}
	for _, idx := range pick(b.keptCalls(nOps, kindScenario), 2) {
		got, err := freshStream(ctx, eng, *b.callAt(idx).Scenario)
		if err != nil {
			b.fail("batch==stream call %d: %v", idx, err)
		} else if !bytes.Equal(got, b.results[idx].body) {
			b.fail("batch==stream call %d: batch bytes differ from a fresh stream", idx)
		}
	}
}

// checkPDES: for each application, the point the planner replayed on 2
// PDES shards equals a serial replay (a ReplayShards: 1 manager).
func (b *bench) checkPDES(ctx context.Context, nOps int) {
	seen := map[string]bool{}
	for _, idx := range b.keptCalls(nOps, kindScenario) {
		req := *b.callAt(idx).Scenario
		if seen[req.App] {
			continue
		}
		seen[req.App] = true
		want, err := freshBytes(ctx, b.st.nodes[0].eng, 1, req)
		if err != nil {
			b.fail("PDES==serial %s: %v", req.App, err)
		} else if !bytes.Equal(want, b.results[idx].body) {
			b.fail("PDES==serial %s: sharded point differs from serial replay", req.App)
		}
	}
}

// checkStandalone: sampled cluster responses equal a standalone manager's.
func (b *bench) checkStandalone(ctx context.Context, nOps int) {
	eng := engine.New(2)
	for _, idx := range pick(b.keptCalls(nOps), 3) {
		want, err := freshBytes(ctx, eng, 0, b.callAt(idx).request())
		if err != nil {
			b.fail("cluster==standalone call %d: %v", idx, err)
		} else if !bytes.Equal(want, b.results[idx].body) {
			b.fail("cluster==standalone call %d: cluster bytes differ from a standalone manager", idx)
		}
	}
}

// checkCore: the workload's representative spec, as served, equals an
// in-process core.RunScenario of the same study.
func (b *bench) checkCore(ctx context.Context, nOps int) {
	var body []byte
	if b.w.name == "cached-mix" {
		body = b.primed[0].body
	} else if nOps > 0 && b.results[0].err == nil {
		body = b.results[0].body
	}
	if body == nil {
		return
	}
	sc, err := coreScenario(b.in.Probe.Scenario)
	if err != nil {
		b.fail("served==core: %v", err)
		return
	}
	sc.Traces = b.st.nodes[0].eng.Traces()
	res, err := core.RunScenario(ctx, engine.New(2), sc)
	if err != nil {
		b.fail("served==core: %v", err)
		return
	}
	want, err := json.Marshal(res)
	if err != nil {
		b.fail("served==core: %v", err)
	} else if !bytes.Equal(want, body) {
		b.fail("served==core: served points differ from core.RunScenario")
	}
}

// coreScenario builds the core spec an app-mode scenario request on a
// platform preset stands for.
func coreScenario(req service.ScenarioRequest) (core.Scenario, error) {
	entry, ok := apps.ByName(req.App, req.Ranks)
	if !ok || req.Platform == nil || req.Platform.Preset == "" {
		return core.Scenario{}, fmt.Errorf("spec is not an app-mode scenario on a preset")
	}
	plat, err := network.PlatformPreset(req.Platform.Preset, req.Ranks)
	if err != nil {
		return core.Scenario{}, err
	}
	cfg := tracer.DefaultConfig()
	if req.Chunks > 0 {
		cfg.Chunks = req.Chunks
	}
	sc := core.Scenario{
		App: entry.App, Ranks: req.Ranks, Tracer: cfg, Platform: plat,
		Axes: req.Axes, Output: core.OutputKind(req.Output),
	}
	for _, f := range req.Flavors {
		sc.Flavors = append(sc.Flavors, core.Flavor(f))
	}
	return sc, nil
}
