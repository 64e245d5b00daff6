package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/apps/cg"
	"repro/internal/apps/sweep3d"
	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tracer"
)

// autoShardCounts reads what the decision tests count: replays that ran
// sharded, and the planner's automatic requests to shard by what ran.
func autoShardCounts() (pdes, sharded, serial uint64) {
	reg := telemetry.Default()
	choice := reg.CounterVec("scenario_auto_shards_total", "", "choice")
	return reg.Counter("sim_pdes_replays_total", "").Value(), choice.With("sharded").Value(), choice.With("serial").Value()
}

// autoShardApp is cg or sweep3d at ranks, as the app registry builds it.
func autoShardApp(name string, ranks int) App {
	if name == "cg" {
		return App{Name: name, Kernel: cg.Kernel(cg.DefaultConfig())}
	}
	return App{Name: name, Kernel: sweep3d.Kernel(sweep3d.DefaultConfig(ranks))}
}

// onePoint is a one-point, one-flavor overlap-real spec at bandwidth bw:
// one replay job, which a 2-worker engine asks to run on 2 shards.
func onePoint(app App, ranks int, plat network.Platform, traces *engine.TraceCache, bw float64, shards int) Scenario {
	return Scenario{
		App: app, Ranks: ranks, Platform: plat, Flavors: []Flavor{FlavorReal},
		Axes: []Axis{BandwidthAxis(bw)}, Traces: traces, ReplayShards: shards,
	}
}

// runJSON runs spec and returns its result's bytes.
func runJSON(t *testing.T, eng *engine.Engine, spec Scenario) []byte {
	t.Helper()
	res, err := RunScenario(context.Background(), eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAutoShardDecidesOncePerProgram: on a 2-worker engine every
// one-point spec asks for 2 shards. cg overlap-real at 64 ranks on
// fatnode-smp hands a worker 2,400 events in its one concurrent window,
// so all three replays shard; sweep3d overlap-real hands it a few dozen
// per window, so only its first replay shards and the later ones, at
// fresh bandwidths, run serially. Every reply equals a serial run's
// bytes.
func TestAutoShardDecidesOncePerProgram(t *testing.T) {
	const ranks = 64
	plat, err := network.PlatformPreset("fatnode-smp", ranks)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(2)
	traces, serialTraces := engine.NewTraceCache(), engine.NewTraceCache()
	for _, c := range []struct {
		app     string
		sharded []bool
	}{
		{"cg", []bool{true, true, true}},
		{"sweep3d", []bool{true, false, false}},
	} {
		app := autoShardApp(c.app, ranks)
		for i, bw := range []float64{125, 310, 777} {
			pdes0, sharded0, serial0 := autoShardCounts()
			got := runJSON(t, eng, onePoint(app, ranks, plat, traces, bw, 0))
			pdes, sharded, serial := autoShardCounts()
			want := [3]uint64{0, 0, 1}
			if c.sharded[i] {
				want = [3]uint64{1, 1, 0}
			}
			if d := [3]uint64{pdes - pdes0, sharded - sharded0, serial - serial0}; d != want {
				t.Fatalf("%s replay %d at %g MB/s: (sharded replays, auto sharded, auto serial) moved by %v, want %v", c.app, i, bw, d, want)
			}
			if ref := runJSON(t, eng, onePoint(app, ranks, plat, serialTraces, bw, 1)); !bytes.Equal(got, ref) {
				t.Fatalf("%s at %g MB/s:\nautomatic %s\nserial    %s", c.app, bw, got, ref)
			}
		}
	}
}

// TestAutoShardExplicitCountHonoured: ReplayShards 2 shards every replay,
// even of a program whose note sends automatic replays serial, and is
// not counted as an automatic choice.
func TestAutoShardExplicitCountHonoured(t *testing.T) {
	const ranks = 64
	plat, err := network.PlatformPreset("fatnode-smp", ranks)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(2)
	traces := engine.NewTraceCache()
	app := autoShardApp("sweep3d", ranks)
	runJSON(t, eng, onePoint(app, ranks, plat, traces, 125, 0))
	pdes0, _, serial0 := autoShardCounts()
	runJSON(t, eng, onePoint(app, ranks, plat, traces, 310, 0))
	if pdes, _, serial := autoShardCounts(); pdes != pdes0 || serial != serial0+1 {
		t.Fatalf("automatic replay after the note: %d sharded, %d serial, want 0 and 1", pdes-pdes0, serial-serial0)
	}
	for _, bw := range []float64{125, 310, 777} {
		pdes0, sharded0, serial0 := autoShardCounts()
		runJSON(t, eng, onePoint(app, ranks, plat, traces, bw, 2))
		pdes, sharded, serial := autoShardCounts()
		if pdes != pdes0+1 || sharded != sharded0 || serial != serial0 {
			t.Fatalf("ReplayShards 2 at %g MB/s: %d sharded replays, %d and %d automatic choices, want 1, 0, 0", bw, pdes-pdes0, sharded-sharded0, serial-serial0)
		}
	}
}

// TestAutoShardNotesPerMapping: the block and round-robin placements of
// one program split its ranks differently, so each keeps a note of its
// own: each mapping's first replay shards, its second does not.
func TestAutoShardNotesPerMapping(t *testing.T) {
	const ranks = 64
	block, err := network.PlatformPreset("fatnode-smp", ranks)
	if err != nil {
		t.Fatal(err)
	}
	rr := block.WithMapping(network.RoundRobinMapping())
	eng := engine.New(2)
	traces := engine.NewTraceCache()
	app := autoShardApp("sweep3d", ranks)
	for _, step := range []struct {
		plat    network.Platform
		bw      float64
		sharded bool
	}{
		{block, 125, true}, {block, 310, false}, {rr, 125, true}, {rr, 310, false}, {block, 777, false},
	} {
		pdes0, _, _ := autoShardCounts()
		runJSON(t, eng, onePoint(app, ranks, step.plat, traces, step.bw, 0))
		if pdes, _, _ := autoShardCounts(); (pdes > pdes0) != step.sharded {
			t.Fatalf("%s at %g MB/s: sharded %v, want %v", step.plat.Mapping, step.bw, pdes > pdes0, step.sharded)
		}
	}
	prog, _, err := traces.CompiledProgram(app.Name, ranks, tracer.DefaultConfig(), app.Kernel, string(FlavorReal))
	if err != nil {
		t.Fatal(err)
	}
	nb, okb := prog.ShardNote(block, 2)
	nr, okr := prog.ShardNote(rr, 2)
	if !okb || !okr || nb == nr {
		t.Fatalf("block note %+v (%v), rr note %+v (%v): want two distinct notes", nb, okb, nr, okr)
	}
}

// TestAutoShardConcurrentFirstReplays: 8 copies of a spec racing to
// replay one program for the first time, each on its own 2-worker
// engine, all ask for 2 shards before any note exists; they leave one
// note, equal to a sharded replay's counts, and every reply is a serial
// run's bytes.
func TestAutoShardConcurrentFirstReplays(t *testing.T) {
	const ranks = 64
	plat, err := network.PlatformPreset("fatnode-smp", ranks)
	if err != nil {
		t.Fatal(err)
	}
	traces, serialTraces := engine.NewTraceCache(), engine.NewTraceCache()
	app := autoShardApp("sweep3d", ranks)
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunScenario(context.Background(), engine.New(2), onePoint(app, ranks, plat, traces, 125, 0))
			if err != nil {
				t.Error(err)
				return
			}
			got[i], _ = json.Marshal(res)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	prog, _, err := traces.CompiledProgram(app.Name, ranks, tracer.DefaultConfig(), app.Kernel, string(FlavorReal))
	if err != nil {
		t.Fatal(err)
	}
	a := sim.NewArena()
	if _, err := a.RunProgramShards(plat.WithInterBandwidth(125), prog, 2); err != nil {
		t.Fatal(err)
	}
	st := a.LastStats()
	if note, ok := prog.ShardNote(plat, 2); !ok || note != (sim.ShardNote{OffloadedEvents: st.OffloadedEvents, ConcurrentWindows: st.ConcurrentWindows}) {
		t.Fatalf("note %+v (%v) after 8 concurrent first replays, want a sharded replay's: %d offloaded, %d windows", note, ok, st.OffloadedEvents, st.ConcurrentWindows)
	}
	ref := runJSON(t, engine.New(2), onePoint(app, ranks, plat, serialTraces, 125, 1))
	for i := range got {
		if !bytes.Equal(got[i], ref) {
			t.Fatalf("spec %d:\nautomatic %s\nserial    %s", i, got[i], ref)
		}
	}
}
