package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"sync"
	"testing"

	"repro/internal/apps/sweep3d"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// oracleReport builds the wire report of one analysis from inputs the
// test owns: a privately traced run, privately built traces, trace.Digest,
// sim.Run and pattern.Analyze. None of it goes through a trace cache,
// Analyze or Report.Wire.
func oracleReport(t *testing.T, run *tracer.Run, chunks int, plat network.Platform) *WireReport {
	t.Helper()
	kRun := run.WithChunks(chunks)
	traces := map[Flavor]*trace.Trace{
		FlavorBase:  kRun.BaseTrace(),
		FlavorReal:  kRun.OverlapReal(),
		FlavorIdeal: kRun.OverlapIdeal(),
	}
	pd, err := plat.Digest()
	if err != nil {
		t.Fatal(err)
	}
	w := &WireReport{
		App:            run.Name,
		Ranks:          run.NumRanks,
		PlatformDigest: pd,
		Platform:       plat.Describe(),
		Patterns:       wirePatterns(pattern.Analyze(run)),
	}
	finish := map[Flavor]float64{}
	for _, f := range []Flavor{FlavorBase, FlavorReal, FlavorIdeal} {
		tr := traces[f]
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		digest, err := trace.Digest(tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(plat, tr)
		if err != nil {
			t.Fatal(err)
		}
		ib, eb, im, em := res.TrafficSplit()
		w.Flavors = append(w.Flavors, WireFlavor{
			Flavor:          f,
			TraceDigest:     digest,
			FinishSec:       res.FinishSec,
			TotalWaitSec:    res.TotalWaitSec(),
			TotalComputeSec: res.TotalComputeSec(),
			IntraBytes:      ib,
			InterBytes:      eb,
			IntraMsgs:       im,
			InterMsgs:       em,
		})
		finish[f] = res.FinishSec
	}
	w.SpeedupReal = metrics.Speedup(finish[FlavorBase], finish[FlavorReal])
	w.SpeedupIdeal = metrics.Speedup(finish[FlavorBase], finish[FlavorIdeal])
	return w
}

// TestReportPointsMatchIndependentOracle: every report point of a
// chunks × bandwidth grid, served from a shared trace cache on a
// hierarchical and a flat platform, marshals to the same bytes as a
// wire report built without the cache.
func TestReportPointsMatchIndependentOracle(t *testing.T) {
	const ranks = 8
	app := scenarioApp()
	run, err := tracer.Trace(app.Name, ranks, tracer.DefaultConfig(), app.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	chunks := []int{2, 5}
	bws := []float64{125, 400}
	eng := engine.New(2)
	traces := engine.NewTraceCache()
	for _, plat := range []network.Platform{scenarioPlatform(t, ranks), network.TestbedFor(app.Name, ranks)} {
		res, err := RunScenario(context.Background(), eng, Scenario{
			App: app, Ranks: ranks, Platform: plat, Traces: traces,
			Axes:   []Axis{ChunksAxis(chunks...), BandwidthAxis(bws...)},
			Output: OutputReport,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != len(chunks)*len(bws) {
			t.Fatalf("%d points, want %d", len(res.Points), len(chunks)*len(bws))
		}
		for i, k := range chunks {
			for j, bw := range bws {
				pt := res.Points[i*len(bws)+j]
				got, err := json.Marshal(pt.Report)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(oracleReport(t, run, k, plat.WithInterBandwidth(bw)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s chunks=%d bandwidth=%g:\nserved %s\noracle %s", plat.Describe(), k, bw, got, want)
				}
			}
		}
	}
}

// oracleWhatIf builds the wire ranking of one what-if point from inputs
// the test owns: traces built from a privately traced run, one
// selective trace per communicated buffer, sim.Run, and a stable sort by
// GainOverReal. None of it goes through a trace cache or the planner.
func oracleWhatIf(t *testing.T, run *tracer.Run, chunks int, plat network.Platform) *WireWhatIf {
	t.Helper()
	kRun := run.WithChunks(chunks)
	finish := func(tr *trace.Trace) float64 {
		t.Helper()
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(plat, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinishSec
	}
	pd, err := plat.Digest()
	if err != nil {
		t.Fatal(err)
	}
	w := &WireWhatIf{
		App:            run.Name,
		Ranks:          run.NumRanks,
		PlatformDigest: pd,
		BaseFinishSec:  finish(kRun.BaseTrace()),
		RealFinishSec:  finish(kRun.OverlapReal()),
		Buffers:        []BufferPotential{},
	}
	for _, name := range kRun.BufferNames() {
		fin := finish(kRun.OverlapSelective(map[string]bool{name: true}))
		w.Buffers = append(w.Buffers, BufferPotential{
			Buffer:       name,
			FinishSec:    fin,
			Speedup:      metrics.Speedup(w.BaseFinishSec, fin),
			GainOverReal: metrics.Speedup(w.RealFinishSec, fin),
		})
	}
	sort.SliceStable(w.Buffers, func(i, j int) bool { return w.Buffers[i].GainOverReal > w.Buffers[j].GainOverReal })
	return w
}

// TestWhatIfPointsMatchIndependentOracle: every what-if point of a
// chunks × bandwidth grid, for cg and sweep3d served from one shared
// trace cache on a hierarchical and a flat platform, serial and on two
// replay shards, marshals to the same bytes as a ranking built without
// the cache.
func TestWhatIfPointsMatchIndependentOracle(t *testing.T) {
	const ranks = 8
	chunks := []int{2, 5}
	bws := []float64{125, 400}
	eng := engine.New(2)
	traces := engine.NewTraceCache()
	for _, app := range []App{scenarioApp(), {Name: "sweep3d", Kernel: sweep3d.Kernel(sweep3d.DefaultConfig(ranks))}} {
		run, err := tracer.Trace(app.Name, ranks, tracer.DefaultConfig(), app.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		for _, plat := range []network.Platform{scenarioPlatform(t, ranks), network.TestbedFor(app.Name, ranks)} {
			want := make([][]byte, 0, len(chunks)*len(bws))
			for _, k := range chunks {
				for _, bw := range bws {
					b, err := json.Marshal(oracleWhatIf(t, run, k, plat.WithInterBandwidth(bw)))
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, b)
				}
			}
			for _, shards := range []int{1, 2} {
				res, err := RunScenario(context.Background(), eng, Scenario{
					App: app, Ranks: ranks, Platform: plat, Traces: traces, ReplayShards: shards,
					Axes:   []Axis{ChunksAxis(chunks...), BandwidthAxis(bws...)},
					Output: OutputWhatIf,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Points) != len(want) {
					t.Fatalf("%d points, want %d", len(res.Points), len(want))
				}
				for i, pt := range res.Points {
					got, err := json.Marshal(pt.WhatIf)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want[i]) {
						t.Fatalf("%s on %s shards=%d %v:\nserved %s\noracle %s", app.Name, plat.Describe(), shards, pt.Coords, got, want[i])
					}
				}
			}
		}
	}
}

// TestWhatIfProgramsFromTraceCache: a what-if grid takes every program
// from the trace cache, the per-buffer selective ones included. The
// first spec builds one overlap-selective program per (chunks, buffer);
// a second spec at a new bandwidth traces nothing and builds nothing.
func TestWhatIfProgramsFromTraceCache(t *testing.T) {
	const ranks = 8
	reg := telemetry.Default()
	runs := reg.Counter("engine_trace_runs_total", "")
	builds := reg.CounterVec("engine_program_builds_total", "", "flavor")
	totalBuilds := func() (n uint64) {
		for _, f := range []string{engine.FlavorBase, engine.FlavorReal, engine.FlavorIdeal, engine.FlavorSelective} {
			n += builds.With(f).Value()
		}
		return n
	}
	ctx := context.Background()
	eng := engine.New(2)
	traces := engine.NewTraceCache()
	app := scenarioApp()
	chunks := []int{2, 5}
	spec := Scenario{
		App: app, Ranks: ranks, Platform: scenarioPlatform(t, ranks), Traces: traces,
		Axes:   []Axis{ChunksAxis(chunks...), BandwidthAxis(125)},
		Output: OutputWhatIf,
	}
	selective0 := builds.With(engine.FlavorSelective).Value()
	if _, err := RunScenario(ctx, eng, spec); err != nil {
		t.Fatal(err)
	}
	run, err := traces.Trace(app.Name, ranks, tracer.DefaultConfig(), app.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if b, want := builds.With(engine.FlavorSelective).Value()-selective0, uint64(len(chunks)*len(run.BufferNames())); b != want || want == 0 {
		t.Fatalf("built %d selective programs, want %d: one per (chunks, buffer)", b, want)
	}

	runs1, builds1 := runs.Value(), totalBuilds()
	spec.Axes = []Axis{ChunksAxis(chunks...), BandwidthAxis(250)}
	if _, err := RunScenario(ctx, eng, spec); err != nil {
		t.Fatal(err)
	}
	if r, b := runs.Value()-runs1, totalBuilds()-builds1; r != 0 || b != 0 {
		t.Fatalf("a what-if spec at a new bandwidth traced %d times and built %d programs, want 0 and 0", r, b)
	}
}

// TestReportPointsShareTraceCache: report points for one (app, ranks)
// at three chunk counts on two platforms, run concurrently on one trace
// cache, trace the application once and analyze its patterns once.
// Every report replays programs the cache built once, keeps the cache's
// trace digests and builds, on demand, the traces they name; a second
// report spec at a new bandwidth builds no program at all.
func TestReportPointsShareTraceCache(t *testing.T) {
	const ranks = 8
	reg := telemetry.Default()
	runs := reg.Counter("engine_trace_runs_total", "")
	analyses := reg.Counter("engine_pattern_analyses_total", "")
	builds := reg.CounterVec("engine_program_builds_total", "", "flavor")
	totalBuilds := func() uint64 {
		return builds.With(engine.FlavorBase).Value() + builds.With(engine.FlavorReal).Value() + builds.With(engine.FlavorIdeal).Value()
	}
	runs0, analyses0, builds0 := runs.Value(), analyses.Value(), totalBuilds()

	ctx := context.Background()
	eng := engine.New(2)
	traces := engine.NewTraceCache()
	app := scenarioApp()
	plats := []network.Platform{scenarioPlatform(t, ranks), network.TestbedFor(app.Name, ranks)}
	chunks := []int{2, 3, 5}
	cfgAt := func(k int) tracer.Config {
		cfg := tracer.DefaultConfig()
		cfg.Chunks = k
		return cfg
	}
	reps := make([]*Report, len(chunks)*len(plats))
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = Analyze(ctx, eng, traces, app, ranks, cfgAt(chunks[i/len(plats)]), plats[i%len(plats)])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if r, a := runs.Value()-runs0, analyses.Value()-analyses0; r != 1 || a != 1 {
		t.Fatalf("%d concurrent reports traced %d times and analyzed patterns %d times, want 1 and 1", len(reps), r, a)
	}
	// Base once (it ignores chunks), overlap-real and -ideal per chunk count.
	if b, want := totalBuilds()-builds0, uint64(1+2*len(chunks)); b != want {
		t.Fatalf("built %d programs, want %d", b, want)
	}
	for i, rep := range reps {
		cfg := cfgAt(chunks[i/len(plats)])
		for k, f := range flavors {
			_, digest, err := traces.CompiledProgram(app.Name, ranks, cfg, app.Kernel, string(f))
			if err != nil {
				t.Fatal(err)
			}
			if rep.digests[k] != digest {
				t.Fatalf("chunks=%d %s: the report's digest is not the cache's", cfg.Chunks, f)
			}
			if got, err := trace.Digest(rep.TraceOf(f)); err != nil || got != digest {
				t.Fatalf("chunks=%d %s: TraceOf digests to %s (%v), the cache's digest is %s", cfg.Chunks, f, got, err, digest)
			}
		}
		if rep.Patterns != reps[0].Patterns {
			t.Fatalf("report %d holds its own pattern analysis, want the cache's", i)
		}
	}

	builds1 := totalBuilds()
	res, err := RunScenario(ctx, eng, Scenario{
		App: app, Ranks: ranks, Platform: plats[0].WithInterBandwidth(777), Traces: traces,
		Axes:   []Axis{ChunksAxis(chunks...)},
		Output: OutputReport,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(chunks) {
		t.Fatalf("%d points, want %d", len(res.Points), len(chunks))
	}
	if b := totalBuilds() - builds1; b != 0 {
		t.Fatalf("a report spec at a new bandwidth built %d programs, want 0", b)
	}
	if r, a := runs.Value()-runs0, analyses.Value()-analyses0; r != 1 || a != 1 {
		t.Fatalf("after the second spec: traced %d times, analyzed patterns %d times, want 1 and 1", r, a)
	}
}
