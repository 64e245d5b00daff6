package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// layerState is what the program's own counters say at one instant.
type layerState struct {
	snap      telemetry.Snapshot
	mgrs      []service.Metrics
	traceLens []int
	rpcBytes  int64
}

func (b *bench) layerState() layerState {
	ls := layerState{snap: telemetry.Default().Snapshot(), rpcBytes: b.rec.rpcBytes.Load()}
	for _, nd := range b.st.nodes {
		ls.mgrs = append(ls.mgrs, nd.mgr.MetricsSnapshot())
		ls.traceLens = append(ls.traceLens, nd.eng.Traces().Len())
	}
	return ls
}

// family sums the samples of a metric family whose label (if given) has
// the given value: counter values, or histogram counts and sums.
func family(s *telemetry.Snapshot, name, label, value string) (v, count, sum float64) {
	m := s.Find(name)
	if m == nil {
		return 0, 0, 0
	}
	for _, smp := range m.Samples {
		if label != "" && smp.Labels[label] != value {
			continue
		}
		v += smp.Value
		if smp.Histogram != nil {
			count += float64(smp.Histogram.Count)
			sum += smp.Histogram.Sum
		}
	}
	return v, count, sum
}

// windowInfo describes the measured window for the per-layer metrics.
type windowInfo struct {
	before, after layerState
	wall          time.Duration
	calls, points int
	// overhead is the traced calls' mean latency over the untraced ones',
	// minus one.
	overhead float64
}

// layerMetrics computes every per-layer metric: counter deltas over the
// window, span statistics, and the direct layer probes run now, after
// the window.
func (b *bench) layerMetrics(ctx context.Context, w windowInfo) (map[string]float64, error) {
	m := map[string]float64{}
	delta := func(name, label, value string) float64 {
		v1, _, _ := family(&w.after.snap, name, label, value)
		v0, _, _ := family(&w.before.snap, name, label, value)
		return v1 - v0
	}
	histDelta := func(name, label, value string) (count, sum float64) {
		_, c1, s1 := family(&w.after.snap, name, label, value)
		_, c0, s0 := family(&w.before.snap, name, label, value)
		return c1 - c0, s1 - s0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// sim
	m["sim.replays"] = delta("sim_replays_total", "", "")
	par, ser := delta("sim_pdes_parallel_seconds_total", "", ""), delta("sim_pdes_serial_seconds_total", "", "")
	m["sim.pdes_parallel_frac"] = ratio(par, par+ser)
	m["sim.pdes_windows_per_replay"] = ratio(delta("sim_pdes_windows_total", "", ""), delta("sim_pdes_replays_total", "", ""))
	if fam := w.after.snap.Find("sim_pdes_shard_events_total"); fam != nil {
		var events []float64
		for _, smp := range fam.Samples {
			if d := delta("sim_pdes_shard_events_total", "shard", smp.Labels["shard"]); d > 0 {
				events = append(events, d)
			}
		}
		if len(events) > 0 {
			m["sim.pdes_shard_imbalance"] = sorted(events)[len(events)-1] / mean(events)
		}
	}

	// engine
	workers := 0
	for _, nd := range b.st.nodes {
		workers += nd.eng.Workers()
	}
	jobs := float64(b.rec.jobs.Load())
	m["engine.jobs"] = jobs
	m["engine.failed"] = float64(b.rec.failed.Load())
	m["engine.busy_s"] = time.Duration(b.rec.busy.Load()).Seconds()
	m["engine.util"] = m["engine.busy_s"] / (float64(workers) * w.wall.Seconds())
	m["engine.wait_ms_mean"] = ratio(ms(time.Duration(b.rec.wait.Load())), jobs)

	// core
	for _, st := range []string{"compile", "replay", "copyout", "emit"} {
		_, sum := histDelta("scenario_stage_seconds", "stage", st)
		m["core.stage_"+st+"_s"] = sum
	}
	m["core.points_computed"] = delta("scenario_points_total", "source", "computed")
	m["core.points_cached"] = delta("scenario_points_total", "source", "cached")

	// service
	var hits, misses, phits, pmisses, deduped, rejected float64
	for i := range w.after.mgrs {
		a, z := w.after.mgrs[i], w.before.mgrs[i]
		hits += float64(a.CacheHits - z.CacheHits)
		misses += float64(a.CacheMisses - z.CacheMisses)
		phits += float64(a.PointCacheHits - z.PointCacheHits)
		pmisses += float64(a.PointCacheMisses - z.PointCacheMisses)
		deduped += float64(a.Deduped - z.Deduped)
		rejected += float64(a.Rejected - z.Rejected)
	}
	m["service.result_hits"], m["service.result_attempts"] = hits, hits+misses
	m["service.result_hit_ratio"] = ratio(hits, hits+misses)
	m["service.point_hits"], m["service.point_attempts"] = phits, phits+pmisses
	m["service.point_hit_ratio"] = ratio(phits, phits+pmisses)
	m["service.deduped"], m["service.rejected"] = deduped, rejected
	qc, qs := histDelta("service_queue_wait_seconds", "", "")
	m["service.queue_wait_ms_mean"] = ratio(qs*1000, qc)

	// tracer
	runs := 0
	for i := range w.after.traceLens {
		runs += w.after.traceLens[i] - w.before.traceLens[i]
	}
	m["tracer.runs"] = float64(runs)

	// http and cluster, from the spans
	b.rec.link()
	ls := b.rec.analyze()
	m["http.client_ms_p50"] = pct(sorted(ls.clientMs), 50)
	m["http.server_ms_p50"] = pct(sorted(ls.serverMs), 50)
	m["http.overhead_ms_p50"] = pct(sorted(ls.overheadMs), 50)
	m["http.ttfb_ms_p50"] = pct(sorted(ls.ttfbMs), 50)
	m["http.req_kb_mean"] = mean(ls.reqKB)
	m["http.resp_kb_mean"] = mean(ls.respKB)
	m["cluster.rpcs_per_req"] = ratio(float64(ls.rpcs), float64(w.calls))
	m["cluster.exec_rpcs_per_point"] = ratio(float64(ls.execRPCs), float64(w.points))
	for _, op := range []string{"exec", "store", "find_value", "find_node", "ping"} {
		m["cluster.rpc_"+op+"_ms"] = pct(sorted(ls.rpcMs[op]), 50)
	}
	m["cluster.rpc_kb_per_req"] = ratio(float64(w.after.rpcBytes-w.before.rpcBytes)/1024, float64(w.calls))
	m["cluster.rpc_failed"] = float64(ls.rpcFailed)
	m["cluster.forwards"] = delta("cluster_forwarded_jobs_total", "", "")
	m["cluster.remote_point_hits"] = delta("cluster_remote_point_hits_total", "", "")
	m["cluster.replications"] = delta("cluster_artifact_replications_total", "", "")
	m["bench.accounted_frac"] = ls.accounted
	m["bench.trace_overhead_frac"] = w.overhead

	if err := b.probe(ctx, m); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	return m, nil
}

// repeat times fn until it has run maxN times or the time budget is
// spent (at least once) and returns the median run in milliseconds.
func repeat(fn func() error) (float64, error) {
	const maxN, budget = 7, 300 * time.Millisecond
	var runs []float64
	t0 := time.Now()
	for len(runs) < maxN && (len(runs) == 0 || time.Since(t0) < budget) {
		s := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		runs = append(runs, ms(time.Since(s)))
	}
	return median(runs), nil
}

// probe calls single layers directly on the workload's representative
// input. It runs after the window, so it never disturbs the measured
// traffic.
func (b *bench) probe(ctx context.Context, m map[string]float64) error {
	p := b.in.Probe
	entry, ok := apps.ByName(p.App, p.Ranks)
	if !ok {
		return fmt.Errorf("unknown probe app %s", p.App)
	}
	cfg := tracer.DefaultConfig()
	var (
		run  *tracer.Run
		tr   *trace.Trace
		prog *sim.Program
		err  error
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"tracer.trace_ms", func() (err error) { run, err = tracer.Trace(p.App, p.Ranks, cfg, entry.App.Kernel); return }},
		{"tracer.build_ms", func() error { tr = run.OverlapReal(); return nil }},
		{"trace.digest_ms", func() error { _, err := trace.Digest(tr); return err }},
		{"trace.codec_ms", func() error {
			var buf bytes.Buffer
			if err := trace.WriteBinary(&buf, tr); err != nil {
				return err
			}
			_, err := trace.ReadBinary(&buf)
			return err
		}},
		{"sim.compile_ms", func() (err error) { prog, err = sim.Compile(tr); return }},
	}
	for _, s := range steps {
		if m[s.name], err = repeat(s.fn); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}

	plat, err := network.PlatformPreset(p.Preset, p.Ranks)
	if err != nil {
		return err
	}
	serial, sharded, events, err := replayTimes(plat, prog)
	if err != nil {
		return err
	}
	m["sim.replay_us"], m["sim.replay_shards2_us"] = serial*1000, sharded*1000
	m["sim.events_per_s"] = float64(events) / (serial / 1000)
	for _, app := range p.PDESApps {
		e, _ := apps.ByName(app, p.Ranks)
		_, prog, err := b.st.nodes[0].eng.Traces().CompiledTrace(app, p.Ranks, cfg, e.App.Kernel, engine.FlavorReal)
		if err != nil {
			return err
		}
		serial, sharded, _, err := replayTimes(plat, prog)
		if err != nil {
			return err
		}
		m["sim.pdes_speedup_x."+app] = serial / sharded
	}

	sc, err := coreScenario(p.Scenario)
	if err != nil {
		return err
	}
	planMs, err := repeat(func() error {
		if _, err := sc.Digest(); err != nil {
			return err
		}
		_, err := sc.PointKeys()
		return err
	})
	if err != nil {
		return err
	}
	m["core.plan_us"] = planMs * 1000
	sc.Traces = b.st.nodes[0].eng.Traces()
	eng := engine.New(2)
	points := 0
	for i := 0; i < 2; i++ { // the first run warms the trace and program caches
		points = 0
		t0 := time.Now()
		if _, err := core.RunScenarioStream(ctx, eng, sc, func(core.ScenarioPoint) error { points++; return nil }); err != nil {
			return err
		}
		m["core.stream_us_per_point"] = float64(time.Since(t0).Microseconds()) / float64(max(points, 1))
	}

	var direct []float64
	mgr := b.st.nodes[0].mgr
	for op := 0; op < len(b.in.Ops) && len(direct) < 40; op++ {
		if !b.results[b.offsets[op]].done {
			break
		}
		req := b.in.Ops[op][0].request()
		if req == nil || b.results[b.offsets[op]].err != nil {
			continue
		}
		t0 := time.Now()
		job, err := mgr.Submit(req)
		if err != nil {
			return err
		}
		if _, err := job.Wait(ctx); err != nil {
			return err
		}
		direct = append(direct, ms(time.Since(t0)))
	}
	m["service.direct_ms_p50"] = pct(sorted(direct), 50)

	if len(b.in.Hops) > 0 {
		hop, err := b.hopProbe(ctx)
		if err != nil {
			return err
		}
		m["cluster.hop_ms_p50"] = hop
	}
	return nil
}

// replayTimes returns the median warm serial and 2-shard replay times of
// prog on plat in milliseconds, and the serial replay's event count. The
// two kinds alternate, so a change in host speed hits both alike.
func replayTimes(plat network.Platform, prog *sim.Program) (serial, sharded float64, events int64, err error) {
	const maxPairs, budget = 9, 600 * time.Millisecond
	serialArena, shardArena := sim.NewArena(), sim.NewArena()
	var ser, shd []float64
	t0 := time.Now()
	for i := 0; i <= maxPairs && (i < 2 || time.Since(t0) < budget); i++ {
		s := time.Now()
		if _, err = serialArena.RunProgram(plat, prog); err != nil {
			return
		}
		m := time.Now()
		if _, err = shardArena.RunProgramShards(plat, prog, 2); err != nil {
			return
		}
		if i > 0 { // the first pair warms both arenas
			ser = append(ser, ms(m.Sub(s)))
			shd = append(shd, ms(time.Since(m)))
		}
	}
	return median(ser), median(shd), serialArena.LastStats().Events, nil
}

// hopProbe times one cached spec sent to its owner node and to a node
// that has never seen it (which forwards it to the owner), and returns
// the difference of the medians.
func (b *bench) hopProbe(ctx context.Context) (float64, error) {
	n0 := b.st.nodes[0]
	var owner, other []float64
	for _, h := range b.in.Hops {
		body, err := n0.cl.ScenarioRaw(ctx, h)
		if err != nil {
			return 0, err
		}
		var hdr core.ScenarioHeader
		if err := json.Unmarshal(body, &hdr); err != nil {
			return 0, err
		}
		// Of three nodes, the one that is neither node 0 nor the owner has
		// not seen the spec; if node 0 owns it, node 1 has not.
		o := b.st.nodeOf(n0.peer.Owner(hdr.SpecDigest).Addr)
		fresh := 1
		if o != 0 {
			fresh = 3 - o
		}
		for _, dst := range []struct {
			node int
			into *[]float64
		}{{o, &owner}, {fresh, &other}} {
			t0 := time.Now()
			got, err := b.st.nodes[dst.node].cl.ScenarioRaw(ctx, h)
			if err != nil {
				return 0, err
			}
			*dst.into = append(*dst.into, ms(time.Since(t0)))
			if !bytes.Equal(got, body) {
				b.fail("hop probe: node %d served different bytes for one spec", dst.node)
			}
		}
	}
	return median(other) - median(owner), nil
}
