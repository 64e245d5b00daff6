// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation section as a measurable target, plus
// ablation and engine micro-benchmarks. Run all of them with
//
//	go test -bench=. -benchmem
//
// Artifact benchmarks:
//
//	BenchmarkTableI                    bus-count configuration
//	BenchmarkFig4CGTimeline            CG timelines + improvement
//	BenchmarkFig5aSweep3DProduction    production scatter
//	BenchmarkFig5bBTConsumption        consumption scatter
//	BenchmarkFig5cPOPConsumption       consumption scatter
//	BenchmarkTableIIaProduction        pattern statistics (a)
//	BenchmarkTableIIbConsumption       pattern statistics (b)
//	BenchmarkFig6aSpeedup              speedups, real & ideal
//	BenchmarkFig6bBandwidthRelaxation  bandwidth relaxation, one grid per app
//	BenchmarkFig6cEquivalentBandwidth  equivalent bandwidth, one grid per app
//	BenchmarkEngineParallelSweep       serial vs engine-parallel chunk sweep
//
// Custom metrics carry the reproduced numbers (speedup_x, pct, MB/s), so a
// benchmark run doubles as a regression check of the paper's shapes.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/paraver"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

const benchRanks = 16

func analyze(b *testing.B, name string, ranks int) *core.Report {
	b.Helper()
	entry, ok := apps.ByName(name, ranks)
	if !ok {
		b.Fatalf("unknown app %q", name)
	}
	rep, err := core.Analyze(context.Background(), nil, nil, entry.App, ranks, tracer.DefaultConfig(), network.TestbedFor(name, ranks))
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkTableI regenerates Table I: the calibrated Dimemas bus count per
// application, reported as a metric per app via sub-benchmarks.
func BenchmarkTableI(b *testing.B) {
	for _, name := range apps.Names {
		name := name
		b.Run(name, func(b *testing.B) {
			var plat network.Platform
			for i := 0; i < b.N; i++ {
				plat = network.TestbedFor(name, 64)
				if err := plat.Validate(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(plat.Buses), "buses")
		})
	}
}

// BenchmarkFig4CGTimeline regenerates Figure 4: the 4-rank NAS-CG
// comparison between the non-overlapped and the overlapped execution.
func BenchmarkFig4CGTimeline(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		rep := analyze(b, "cg", 4)
		view := paraver.RenderComparison(rep.Base, rep.Real, "cg/base", "cg/overlap", 100)
		if len(view) == 0 {
			b.Fatal("empty timeline")
		}
		improvement = 100 * (rep.Base.FinishSec - rep.Real.FinishSec) / rep.Base.FinishSec
	}
	b.ReportMetric(improvement, "improvement_pct")
}

func benchScatter(b *testing.B, app, buffer string, rank int, side pattern.Side) {
	entry, _ := apps.ByName(app, benchRanks)
	var points int
	for i := 0; i < b.N; i++ {
		run, err := tracer.Trace(app, benchRanks, tracer.DefaultConfig(), entry.App.Kernel)
		if err != nil {
			b.Fatal(err)
		}
		sc := pattern.ScatterFor(run, buffer, rank, side)
		if sc == nil || len(sc.Points) == 0 {
			b.Fatalf("no scatter for %s %s", app, buffer)
		}
		points = len(sc.Points)
	}
	b.ReportMetric(float64(points), "points")
}

// BenchmarkFig5aSweep3DProduction regenerates the Fig. 5a dataset: the
// production pattern of Sweep3D's 600-element outflow buffer.
func BenchmarkFig5aSweep3DProduction(b *testing.B) {
	benchScatter(b, "sweep3d", "outflow-east", 0, pattern.Production)
}

// BenchmarkFig5bBTConsumption regenerates the Fig. 5b dataset: NAS-BT's
// four tight copy passes over the received face.
func BenchmarkFig5bBTConsumption(b *testing.B) {
	benchScatter(b, "bt", "face-in", 1, pattern.Consumption)
}

// BenchmarkFig5cPOPConsumption regenerates the Fig. 5c dataset: POP's
// independent-work prefix before the halo unpack.
func BenchmarkFig5cPOPConsumption(b *testing.B) {
	benchScatter(b, "pop", "halo-in-e", 0, pattern.Consumption)
}

// BenchmarkTableIIaProduction regenerates Table II(a) and reports each
// application's first-element percentage.
func BenchmarkTableIIaProduction(b *testing.B) {
	for _, name := range apps.Names {
		name := name
		b.Run(name, func(b *testing.B) {
			entry, _ := apps.ByName(name, benchRanks)
			var p pattern.ProductionStats
			for i := 0; i < b.N; i++ {
				run, err := tracer.Trace(name, benchRanks, tracer.DefaultConfig(), entry.App.Kernel)
				if err != nil {
					b.Fatal(err)
				}
				p = pattern.Analyze(run).AppProduction
			}
			b.ReportMetric(p.FirstElem, "first_elem_pct")
			if p.Chunkable {
				b.ReportMetric(p.Quarter, "quarter_pct")
				b.ReportMetric(p.Half, "half_pct")
				b.ReportMetric(p.Whole, "whole_pct")
			}
		})
	}
}

// BenchmarkTableIIbConsumption regenerates Table II(b).
func BenchmarkTableIIbConsumption(b *testing.B) {
	for _, name := range apps.Names {
		name := name
		b.Run(name, func(b *testing.B) {
			entry, _ := apps.ByName(name, benchRanks)
			var c pattern.ConsumptionStats
			for i := 0; i < b.N; i++ {
				run, err := tracer.Trace(name, benchRanks, tracer.DefaultConfig(), entry.App.Kernel)
				if err != nil {
					b.Fatal(err)
				}
				c = pattern.Analyze(run).AppConsumption
			}
			b.ReportMetric(c.Nothing, "nothing_pct")
			if c.Chunkable {
				b.ReportMetric(c.Quarter, "quarter_pct")
				b.ReportMetric(c.Half, "half_pct")
			}
		})
	}
}

// BenchmarkFig6aSpeedup regenerates Figure 6a: overlap speedup per
// application for both pattern flavours.
func BenchmarkFig6aSpeedup(b *testing.B) {
	for _, name := range apps.Names {
		name := name
		b.Run(name, func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				rep = analyze(b, name, benchRanks)
			}
			b.ReportMetric(rep.SpeedupReal, "speedup_real_x")
			b.ReportMetric(rep.SpeedupIdeal, "speedup_ideal_x")
		})
	}
}

// benchNeeds runs each application's Fig. 6b/6c study (one bandwidth
// grid, metrics.BandwidthGrid, around the 250 MB/s testbed) and reports
// the answer pick reads from it: its first crossing and holding threshold
// in MB/s (an answer no finite grid bandwidth gives reports as inf=1
// instead), their factors over the reference, and the curve's largest
// rise in percent.
func benchNeeds(b *testing.B, pick func(*core.BandwidthNeeds) metrics.Crossing) {
	for _, name := range apps.Names {
		name := name
		b.Run(name, func(b *testing.B) {
			entry, _ := apps.ByName(name, benchRanks)
			var needs *core.BandwidthNeeds
			for i := 0; i < b.N; i++ {
				var err error
				needs, err = core.RunBandwidthNeeds(context.Background(), nil, core.Scenario{
					App: entry.App, Ranks: benchRanks, Platform: network.TestbedFor(name, benchRanks),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			c := pick(needs)
			if math.IsInf(c.First, 1) {
				b.ReportMetric(1, "inf")
			} else {
				b.ReportMetric(c.First, "first_MBps")
				b.ReportMetric(c.Holding, "holding_MBps")
				b.ReportMetric(metrics.BandwidthFactor(c.Holding, needs.RefMBps), "holding_factor_x")
			}
			b.ReportMetric(100*c.Rise, "rise_pct")
		})
	}
}

// BenchmarkFig6bBandwidthRelaxation regenerates Figure 6b: the bandwidth
// at which the ideal-pattern overlapped execution still matches the
// non-overlapped one at 250 MB/s.
func BenchmarkFig6bBandwidthRelaxation(b *testing.B) {
	benchNeeds(b, func(n *core.BandwidthNeeds) metrics.Crossing { return n.Ideal.Relaxed })
}

// BenchmarkFig6cEquivalentBandwidth regenerates Figure 6c: the bandwidth
// the non-overlapped execution needs to match the ideal-pattern
// overlapped one at 250 MB/s (inf=1 is the Sweep3D result).
func BenchmarkFig6cEquivalentBandwidth(b *testing.B) {
	benchNeeds(b, func(n *core.BandwidthNeeds) metrics.Crossing { return n.Ideal.Equivalent })
}

// ---------------------------------------------------------------------------
// Ablations: each varies one parameter of the overlapped traces or the
// platform model.

// BenchmarkAblationChunkCount varies the number of chunks per message (the
// paper fixes 4) on NAS-CG and reports the real-pattern speedup per count.
func BenchmarkAblationChunkCount(b *testing.B) {
	for _, chunks := range []int{1, 2, 4, 8, 16} {
		chunks := chunks
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			entry, _ := apps.ByName("cg", benchRanks)
			cfg := tracer.DefaultConfig()
			cfg.Chunks = chunks
			var speedup float64
			for i := 0; i < b.N; i++ {
				rep, err := core.Analyze(context.Background(), nil, nil, entry.App, benchRanks, cfg, network.TestbedFor("cg", benchRanks))
				if err != nil {
					b.Fatal(err)
				}
				speedup = rep.SpeedupReal
			}
			b.ReportMetric(speedup, "speedup_real_x")
		})
	}
}

// BenchmarkAblationBuses varies the global-bus pool on Sweep3D (Table I
// calibrates 12) and reports the base finish time.
func BenchmarkAblationBuses(b *testing.B) {
	for _, buses := range []int{1, 4, 12, 32, 0} {
		buses := buses
		b.Run(fmt.Sprintf("buses=%d", buses), func(b *testing.B) {
			entry, _ := apps.ByName("sweep3d", benchRanks)
			plat := network.TestbedFor("sweep3d", benchRanks).WithBuses(buses)
			var finish float64
			for i := 0; i < b.N; i++ {
				rep, err := core.Analyze(context.Background(), nil, nil, entry.App, benchRanks, tracer.DefaultConfig(), plat)
				if err != nil {
					b.Fatal(err)
				}
				finish = rep.Base.FinishSec
			}
			b.ReportMetric(finish*1e3, "base_finish_ms")
		})
	}
}

// BenchmarkAblationPorts varies the per-processor port counts on SPECFEM3D,
// whose multi-neighbour exchange is sensitive to injection concurrency.
func BenchmarkAblationPorts(b *testing.B) {
	for _, ports := range []int{1, 2, 4, 0} {
		ports := ports
		b.Run(fmt.Sprintf("ports=%d", ports), func(b *testing.B) {
			entry, _ := apps.ByName("specfem3d", benchRanks)
			plat := network.TestbedFor("specfem3d", benchRanks)
			plat.InPorts = ports
			plat.OutPorts = ports
			var finish float64
			for i := 0; i < b.N; i++ {
				rep, err := core.Analyze(context.Background(), nil, nil, entry.App, benchRanks, tracer.DefaultConfig(), plat)
				if err != nil {
					b.Fatal(err)
				}
				finish = rep.Base.FinishSec
			}
			b.ReportMetric(finish*1e3, "base_finish_ms")
		})
	}
}

// BenchmarkAblationCongestion measures the nonlinear congestion extension
// on POP at its calibrated bus count.
func BenchmarkAblationCongestion(b *testing.B) {
	for _, cf := range []float64{0, 0.5, 2} {
		cf := cf
		b.Run(fmt.Sprintf("factor=%g", cf), func(b *testing.B) {
			entry, _ := apps.ByName("pop", benchRanks)
			plat := network.TestbedFor("pop", benchRanks)
			plat.CongestionFactor = cf
			var finish float64
			for i := 0; i < b.N; i++ {
				rep, err := core.Analyze(context.Background(), nil, nil, entry.App, benchRanks, tracer.DefaultConfig(), plat)
				if err != nil {
					b.Fatal(err)
				}
				finish = rep.Base.FinishSec
			}
			b.ReportMetric(finish*1e3, "base_finish_ms")
		})
	}
}

// BenchmarkAblationEagerThreshold compares the asynchronous-eager default
// against rendezvous transfers on POP.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for _, thr := range []int64{-1, 0, 4096} {
		thr := thr
		b.Run(fmt.Sprintf("eager=%d", thr), func(b *testing.B) {
			entry, _ := apps.ByName("pop", benchRanks)
			plat := network.TestbedFor("pop", benchRanks)
			plat.EagerThresholdBytes = thr
			var finish float64
			for i := 0; i < b.N; i++ {
				rep, err := core.Analyze(context.Background(), nil, nil, entry.App, benchRanks, tracer.DefaultConfig(), plat)
				if err != nil {
					b.Fatal(err)
				}
				finish = rep.Base.FinishSec
			}
			b.ReportMetric(finish*1e3, "base_finish_ms")
		})
	}
}

// BenchmarkAblationMessageScale sweeps CG's workload size and reports the
// real-pattern speedup. Compute and transfer scale together with the
// vector length while the per-chunk latency does not, so small workloads
// (latency-dominated exchanges) profit relatively more from hiding.
func BenchmarkAblationMessageScale(b *testing.B) {
	for _, scale := range []float64{0.25, 1, 4} {
		scale := scale
		b.Run(fmt.Sprintf("size=%gx", scale), func(b *testing.B) {
			entry, _ := apps.ByNameScaled("cg", benchRanks, apps.Scale{SizeScale: scale, IterScale: 1})
			var speedup float64
			for i := 0; i < b.N; i++ {
				rep, err := core.Analyze(context.Background(), nil, nil, entry.App, benchRanks, tracer.DefaultConfig(), network.TestbedFor("cg", benchRanks))
				if err != nil {
					b.Fatal(err)
				}
				speedup = rep.SpeedupReal
			}
			b.ReportMetric(speedup, "speedup_real_x")
		})
	}
}

// ---------------------------------------------------------------------------
// Engine micro-benchmarks.

// BenchmarkEngineParallelSweep compares the chunk-count sweep — one
// chunks-axis scenario of the three flavors — on a one-worker engine
// against the same scenario fanned out across the experiment engine's
// full worker pool. The serial and parallel sub-benchmarks replay
// identical work — a 16-point ablation of NAS-CG — so on an N-CPU machine
// the parallel path should approach min(N, points)x the serial throughput
// (>=2x on 4+ CPUs); on one CPU the two are equivalent. The two results
// are asserted byte-identical before measuring.
func BenchmarkEngineParallelSweep(b *testing.B) {
	entry, _ := apps.ByName("cg", benchRanks)
	sweep := core.Scenario{
		App: entry.App, Ranks: benchRanks, Platform: network.TestbedFor("cg", benchRanks),
		Flavors: []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal},
		Axes:    []core.Axis{core.ChunksAxis(1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32)},
	}
	points := float64(sweep.GridSize())
	ctx := context.Background()
	serial, parallel := engine.New(1), engine.New(0) // 0 = GOMAXPROCS workers

	var results [2][]byte
	for i, eng := range []*engine.Engine{serial, parallel} {
		res, err := core.RunScenario(ctx, eng, sweep)
		if err != nil {
			b.Fatal(err)
		}
		if results[i], err = json.Marshal(res); err != nil {
			b.Fatal(err)
		}
	}
	if !bytes.Equal(results[0], results[1]) {
		b.Fatalf("parallel sweep diverged from serial:\nserial:   %s\nparallel: %s", results[0], results[1])
	}

	for _, side := range []struct {
		name string
		eng  *engine.Engine
	}{{"serial", serial}, {"parallel", parallel}} {
		b.Run(side.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunScenario(ctx, side.eng, sweep); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(points, "points")
			b.ReportMetric(float64(side.eng.Workers()), "workers")
		})
	}
}

// ringTrace builds a ring-exchange trace for simulator throughput tests.
func ringTrace(n, iters int, instr, bytes int64) *trace.Trace {
	tr := trace.New("ring", "base", n)
	for it := 0; it < iters; it++ {
		for r := 0; r < n; r++ {
			next := (r + 1) % n
			prev := (r + n - 1) % n
			tr.Append(r, trace.Record{Kind: trace.KindCompute, Instr: instr})
			tr.Append(r, trace.Record{Kind: trace.KindISend, Peer: next, Tag: it, Bytes: bytes})
			tr.Append(r, trace.Record{Kind: trace.KindRecv, Peer: prev, Tag: it, Bytes: bytes})
		}
	}
	return tr
}

// BenchmarkSimulatorReplay measures the discrete-event engine: records
// replayed per second on a 32-rank ring. Each iteration pays the full
// one-shot cost (compile + replay + fresh state); BenchmarkSimCompiledReplay
// measures the amortized sweep path.
func BenchmarkSimulatorReplay(b *testing.B) {
	tr := ringTrace(32, 50, 100_000, 10_000)
	plat := network.Testbed(32)
	records := 0
	for r := range tr.Ranks {
		records += len(tr.Ranks[r].Records)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(plat, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "records/replay")
}

// BenchmarkSimCompiledReplay measures the steady-state sweep path: one
// compiled program replayed on a warm arena — the cost of every sweep
// point after the first. allocs/op must stay ~0: the zero-alloc property
// is also pinned by TestReplayAllocs* in internal/sim.
func BenchmarkSimCompiledReplay(b *testing.B) {
	tr := ringTrace(32, 50, 100_000, 10_000)
	records := 0
	for r := range tr.Ranks {
		records += len(tr.Ranks[r].Records)
	}
	multi, err := network.PlatformPreset("fatnode-smp", 32)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		plat network.Platform
	}{
		{"flat-degenerate", network.Testbed(32)},
		{"fatnode-block", multi},
		{"fatnode-rr", multi.WithMapping(network.RoundRobinMapping())},
	}
	prog, err := sim.Compile(tr)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			arena := sim.NewArena()
			if _, err := arena.RunProgram(tc.plat, prog); err != nil {
				b.Fatal(err) // warm the arena's buffers
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arena.RunProgram(tc.plat, prog); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(records), "records/replay")
		})
	}
	// Sharded (conservative PDES) replay of the same program: the shard
	// dimension of the baseline. Results are byte-identical to serial —
	// these rows measure pure scheduling. The platform re-clusters onto
	// one node per shard (one shard per node is the partition's natural
	// grain). On a single-core box the shard counts collapse to serial
	// plus coordination overhead; the multicore speedup only shows when
	// GOMAXPROCS >= the shard count.
	for _, shards := range []int{2, 4} {
		shards := shards
		b.Run(fmt.Sprintf("fatnode-shards%d", shards), func(b *testing.B) {
			plat := multi.WithNodes(shards)
			if sim.EffectiveShards(plat, prog, shards) != shards {
				b.Skipf("platform cannot run %d shards", shards)
			}
			arena := sim.NewArena()
			if _, err := arena.RunProgramShards(plat, prog, shards); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arena.RunProgramShards(plat, prog, shards); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(records), "records/replay")
		})
	}
	// Real 256-rank programs on 2 shards: most windows of sweep3d and pop
	// have one busy shard, the regime where waking a worker per window
	// used to cost more than the window's events.
	fat256, err := network.PlatformPreset("fatnode-smp", 256)
	if err != nil {
		b.Fatal(err)
	}
	for _, app := range []string{"sweep3d", "pop"} {
		b.Run("fatnode256-"+app+"-shards2", func(b *testing.B) {
			prog := overlapRealProgram(b, app, 256)
			arena := sim.NewArena()
			if _, err := arena.RunProgramShards(fat256, prog, 2); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arena.RunProgramShards(fat256, prog, 2); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(prog.Records()), "records/replay")
		})
	}
	// The same programs through sim.ReplaySummary, the pooled replay every
	// scenario point, bandwidth search and what-if finish time takes: no
	// timeline and no comm log, serially and on 2 shards.
	for _, app := range []string{"sweep3d", "pop"} {
		for _, shards := range []int{1, 2} {
			name := "fatnode256-" + app + "-summary"
			if shards > 1 {
				name += fmt.Sprintf("-shards%d", shards)
			}
			b.Run(name, func(b *testing.B) {
				benchSummary(b, fat256, overlapRealProgram(b, app, 256), shards)
			})
		}
	}
	// Serial summary replays of real 64-rank programs where scenario
	// grids and Fig. 6 curves spend their replays: cg and specfem3d on
	// marenostrum-4x (the sweep-grid workload's platform; its finite
	// intra-node buses keep it serial) under both mappings, and pop and
	// bt on their calibrated testbeds, where the unit calendars are
	// hottest.
	mn4, err := network.PlatformPreset("marenostrum-4x", 64)
	if err != nil {
		b.Fatal(err)
	}
	for _, app := range []string{"cg", "specfem3d"} {
		for _, m := range []struct {
			name    string
			mapping network.Mapping
		}{{"block", network.BlockMapping()}, {"rr", network.RoundRobinMapping()}} {
			b.Run("marenostrum64-"+app+"-"+m.name+"-summary", func(b *testing.B) {
				benchSummary(b, mn4.WithMapping(m.mapping), overlapRealProgram(b, app, 64), 1)
			})
		}
	}
	for _, app := range []string{"pop", "bt"} {
		b.Run("testbed64-"+app+"-summary", func(b *testing.B) {
			benchSummary(b, network.TestbedFor(app, 64), overlapRealProgram(b, app, 64), 1)
		})
	}
}

// benchSummary times sim.ReplaySummary of prog on plat at the given
// shard count, after one untimed replay warms the pooled arena.
func benchSummary(b *testing.B, plat network.Platform, prog *sim.Program, shards int) {
	if _, err := sim.ReplaySummary(plat, prog, shards); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ReplaySummary(plat, prog, shards); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(prog.Records()), "records/replay")
}

// overlapRealPrograms memoizes overlapRealProgram across the -count
// repetitions of a benchmark run.
var overlapRealPrograms = map[string]*sim.Program{}

// overlapRealProgram traces app at the given rank count and compiles its
// overlap-real trace, once per test binary.
func overlapRealProgram(b *testing.B, app string, ranks int) *sim.Program {
	b.Helper()
	key := fmt.Sprintf("%s/%d", app, ranks)
	if prog, ok := overlapRealPrograms[key]; ok {
		return prog
	}
	entry, _ := apps.ByName(app, ranks)
	run, err := tracer.Trace(app, ranks, tracer.DefaultConfig(), entry.App.Kernel)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := sim.Compile(run.OverlapReal())
	if err != nil {
		b.Fatal(err)
	}
	overlapRealPrograms[key] = prog
	return prog
}

// BenchmarkSimHierarchical measures the hierarchical replay path on the
// same 32-rank ring: the degenerate one-rank-per-node platform (the
// flat-equivalence cost), and genuinely multi-node platforms under both
// placements. The flat and flat-degenerate sub-benchmarks should be
// indistinguishable — the classification is a per-transfer table lookup.
func BenchmarkSimHierarchical(b *testing.B) {
	tr := ringTrace(32, 50, 100_000, 10_000)
	records := 0
	for r := range tr.Ranks {
		records += len(tr.Ranks[r].Records)
	}
	multi, err := network.PlatformPreset("fatnode-smp", 32)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		plat network.Platform
	}{
		{"flat-degenerate", network.Testbed(32)},
		{"fatnode-block", multi},
		{"fatnode-rr", multi.WithMapping(network.RoundRobinMapping())},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var intra int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(tc.plat, tr)
				if err != nil {
					b.Fatal(err)
				}
				intra, _, _, _ = res.TrafficSplit()
			}
			b.ReportMetric(float64(records), "records/replay")
			b.ReportMetric(float64(intra), "intra_bytes")
		})
	}
}

// BenchmarkTracerInstrumentation measures the per-access tracking cost:
// "toy" is a 1-rank, 2048-event log that stays in cache, "bt/32" the
// 5M-event BT run whose logs stream through memory, reported with the
// bytes allocated per recorded event. CI's bench-regression job gates
// bt/32's ns/op.
func BenchmarkTracerInstrumentation(b *testing.B) {
	b.Run("toy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := tracer.Trace("bench", 1, tracer.DefaultConfig(), func(p *tracer.Proc) {
				a := p.NewArray("buf", 1024)
				for j := 0; j < 1024; j++ {
					a.Store(j, float64(j))
				}
				for j := 0; j < 1024; j++ {
					_ = a.Load(j)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bt/32", func(b *testing.B) {
		const ranks = 32
		entry, _ := apps.ByName("bt", ranks)
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		events := 0
		for i := 0; i < b.N; i++ {
			run, err := tracer.Trace("bt", ranks, tracer.DefaultConfig(), entry.App.Kernel)
			if err != nil {
				b.Fatal(err)
			}
			events = 0
			for _, log := range run.Logs {
				events += log.Len()
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(events), "B/event")
	})
}

// BenchmarkTraceEncodeDecode measures the text codec round trip.
func BenchmarkTraceEncodeDecode(b *testing.B) {
	tr := ringTrace(16, 20, 1_000_000, 64_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlapTransformation measures the overlap trace builders
// (event log -> chunked trace) on 32-rank CG and BT runs at 3 chunks, the
// per-spec rebuild a chunk-count axis pays. CI's bench-regression job
// gates its ns/op.
func BenchmarkOverlapTransformation(b *testing.B) {
	const ranks, chunks = 32, 3
	for _, app := range []string{"cg", "bt"} {
		entry, _ := apps.ByName(app, ranks)
		run, err := tracer.Trace(app, ranks, tracer.DefaultConfig(), entry.App.Kernel)
		if err != nil {
			b.Fatal(err)
		}
		run = run.WithChunks(chunks)
		for _, fl := range []struct {
			name  string
			build func() *trace.Trace
		}{{"real", run.OverlapReal}, {"ideal", run.OverlapIdeal}} {
			b.Run(fmt.Sprintf("%s/%d/%s", app, ranks, fl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if fl.build() == nil {
						b.Fatal("nil trace")
					}
				}
			})
		}
	}
}

// BenchmarkPatternAnalysis measures the Table II computation on a CG run.
func BenchmarkPatternAnalysis(b *testing.B) {
	entry, _ := apps.ByName("cg", benchRanks)
	run, err := tracer.Trace("cg", benchRanks, tracer.DefaultConfig(), entry.App.Kernel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pattern.Analyze(run) == nil {
			b.Fatal("nil analysis")
		}
	}
}

// BenchmarkScenarioStream measures the scenario pipeline's two faces on
// one replayed-trace grid: the batch collector (materialize the full
// ScenarioResult) and the streaming planner (points delivered to a yield
// as they finish, in order). points_per_sec is grid throughput; run with
// -benchmem — the B/op gap between the sub-benchmarks is what batch
// materialization costs over streaming on the same grid. The report and
// whatif sub-benchmarks are served points: one full analysis of cg/16,
// or one per-buffer ranking of pop/64, per iteration at a bandwidth no
// earlier iteration used, so only the replays are new and the run,
// programs (selective ones included), digests and patterns come from the
// engine's trace cache.
func BenchmarkScenarioStream(b *testing.B) {
	tr, err := engine.NewStoredTrace(ringTrace(16, 40, 1000, 64<<10))
	if err != nil {
		b.Fatal(err)
	}
	plat, err := network.PlatformPreset("marenostrum-4x", 16)
	if err != nil {
		b.Fatal(err)
	}
	bws := make([]float64, 24)
	for i := range bws {
		bws[i] = 50 * float64(i+1)
	}
	spec := core.Scenario{
		Trace:    tr,
		Platform: plat,
		Axes:     []core.Axis{core.BandwidthAxis(bws...)},
		Output:   core.OutputFinish,
	}
	points := spec.GridSize()
	ctx := context.Background()
	eng := engine.New(0)

	// Cross-check once: the batch result is exactly the streamed points.
	batch, err := core.RunScenario(ctx, eng, spec)
	if err != nil {
		b.Fatal(err)
	}
	var streamed []core.ScenarioPoint
	if _, err := core.RunScenarioStream(ctx, eng, spec, func(pt core.ScenarioPoint) error {
		streamed = append(streamed, pt)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Points, streamed) {
		b.Fatal("stream diverged from batch")
	}

	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunScenario(ctx, eng, spec); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds(), "points_per_sec")
		b.ReportMetric(float64(points), "points")
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			if _, err := core.RunScenarioStream(ctx, eng, spec, func(core.ScenarioPoint) error {
				n++
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			if n != points {
				b.Fatalf("%d points, want %d", n, points)
			}
		}
		b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds(), "points_per_sec")
		b.ReportMetric(float64(points), "points")
	})
	for _, c := range []struct {
		name, app string
		ranks     int
		out       core.OutputKind
	}{
		{"report", "cg", 16, core.OutputReport},
		{"whatif", "pop", 64, core.OutputWhatIf},
	} {
		b.Run(c.name, func(b *testing.B) {
			entry, _ := apps.ByName(c.app, c.ranks)
			plat, err := network.PlatformPreset("marenostrum-4x", c.ranks)
			if err != nil {
				b.Fatal(err)
			}
			spec := core.Scenario{App: entry.App, Ranks: c.ranks, Output: c.out, Traces: eng.Traces()}
			run := func(i int) {
				spec.Platform = plat.WithInterBandwidth(100 + float64(i))
				res, err := core.RunScenario(ctx, eng, spec)
				if err != nil {
					b.Fatal(err)
				}
				if pt := res.Points[0]; pt.Report == nil && pt.WhatIf == nil {
					b.Fatalf("%s point without its output", c.out)
				}
			}
			run(-1) // prime the trace cache outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(i)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "points_per_sec")
		})
	}
	// bigpoint is one big-point request without the service: sweep3d
	// overlap-real at 256 ranks on fatnode-smp, one point per iteration
	// at a bandwidth no earlier iteration used, on the planner's
	// automatic shards. The prime traces, compiles and makes the
	// program's first (sharded) replay, so the timed loop measures what
	// its shard note decides.
	bw := 100.0
	b.Run("bigpoint", func(b *testing.B) {
		const ranks = 256
		entry, _ := apps.ByName("sweep3d", ranks)
		plat, err := network.PlatformPreset("fatnode-smp", ranks)
		if err != nil {
			b.Fatal(err)
		}
		spec := core.Scenario{App: entry.App, Ranks: ranks, Platform: plat, Flavors: []core.Flavor{core.FlavorReal}, Traces: eng.Traces()}
		run := func() {
			bw++
			spec.Axes = []core.Axis{core.BandwidthAxis(bw)}
			if _, err := core.RunScenario(ctx, eng, spec); err != nil {
				b.Fatal(err)
			}
		}
		run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "points_per_sec")
	})
}
