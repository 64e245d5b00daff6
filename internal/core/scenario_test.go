package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/apps/cg"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

func scenarioApp() App {
	return App{Name: "cg", Kernel: cg.Kernel(cg.DefaultConfig())}
}

func scenarioPlatform(t *testing.T, ranks int) network.Platform {
	t.Helper()
	plat, err := network.PlatformPreset("marenostrum-4x", ranks)
	if err != nil {
		t.Fatal(err)
	}
	return plat
}

// TestScenarioGridDeterminism is the planner's core contract: the same
// spec expands to the same point order and the same digest, and two
// independent runs — on engines with different worker counts — return
// byte-identical marshalled results.
func TestScenarioGridDeterminism(t *testing.T) {
	const ranks = 8
	spec := Scenario{
		App: scenarioApp(), Ranks: ranks, Platform: scenarioPlatform(t, ranks),
		Flavors: []Flavor{FlavorBase, FlavorReal},
		Axes: []Axis{
			BandwidthAxis(125, 500),
			MappingAxis("block", "rr"),
		},
		Output: OutputTraffic,
	}
	ctx := context.Background()
	first, err := RunScenario(ctx, engine.New(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunScenario(ctx, engine.New(8), spec)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("results differ across engines:\n%s\n%s", b1, b2)
	}
	d1, err := spec.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != first.SpecDigest {
		t.Fatalf("spec digest %s, result carries %s", d1, first.SpecDigest)
	}
	// Row-major order, last axis fastest: (125,block) (125,rr) (500,block) (500,rr).
	want := [][2]string{{"125", "block"}, {"125", "rr"}, {"500", "block"}, {"500", "rr"}}
	if len(first.Points) != len(want) {
		t.Fatalf("%d points, want %d", len(first.Points), len(want))
	}
	for i, pt := range first.Points {
		if pt.Coords[0].Value != want[i][0] || pt.Coords[1].Value != want[i][1] {
			t.Fatalf("point %d at (%s,%s), want (%s,%s)",
				i, pt.Coords[0].Value, pt.Coords[1].Value, want[i][0], want[i][1])
		}
		if len(pt.Flavors) != 2 || pt.Flavors[0].Flavor != FlavorBase || pt.Flavors[1].Flavor != FlavorReal {
			t.Fatalf("point %d flavors %+v", i, pt.Flavors)
		}
	}
}

// TestScenarioDigestNormalizes checks default spellings collapse: an
// explicit default output/flavor set digests equal to the implicit one,
// and a different axis point list digests differently.
func TestScenarioDigestNormalizes(t *testing.T) {
	const ranks = 8
	base := Scenario{
		App: scenarioApp(), Ranks: ranks, Platform: scenarioPlatform(t, ranks),
		Axes: []Axis{BandwidthAxis(125, 500)},
	}
	explicit := base
	explicit.Output = OutputFinish
	explicit.Flavors = []Flavor{FlavorBase, FlavorReal}
	explicit.Tracer = tracer.DefaultConfig()
	d1, err := base.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := explicit.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("default and explicit spellings digest differently: %s vs %s", d1, d2)
	}
	other := base
	other.Axes = []Axis{BandwidthAxis(125, 501)}
	d3, err := other.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("different grids share a digest")
	}
}

// TestMappingSweepIsScenarioTranslation proves the legacy core function
// returns byte-identical JSON to an independent serial replay of the
// same study — the golden-equivalence contract of the wrapper rewrite.
func TestMappingSweepIsScenarioTranslation(t *testing.T) {
	const ranks = 8
	plat := scenarioPlatform(t, ranks)
	app := scenarioApp()
	mappings := []network.Mapping{network.BlockMapping(), network.RoundRobinMapping()}

	got, err := MappingSweep(context.Background(), engine.New(4), app, ranks, plat, tracer.DefaultConfig(), mappings)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference: trace privately, replay each mapping with the
	// plain simulator — no scenario machinery, no pooled arenas.
	run, err := tracer.Trace(app.Name, ranks, tracer.DefaultConfig(), app.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]MappingPoint, 0, len(mappings))
	for _, m := range mappings {
		p := plat.WithMapping(m)
		baseRes, err := sim.Run(p, run.BaseTrace())
		if err != nil {
			t.Fatal(err)
		}
		realRes, err := sim.Run(p, run.OverlapReal())
		if err != nil {
			t.Fatal(err)
		}
		ib, eb, _, _ := baseRes.TrafficSplit()
		want = append(want, MappingPoint{
			Mapping:       m,
			BaseFinishSec: baseRes.FinishSec,
			RealFinishSec: realRes.FinishSec,
			SpeedupReal:   metrics.Speedup(baseRes.FinishSec, realRes.FinishSec),
			IntraBytes:    ib,
			InterBytes:    eb,
		})
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("scenario-backed sweep differs from serial reference:\n%s\n%s", gotJSON, wantJSON)
	}
}

// TestWhatIfIsScenarioTranslation proves the wrapped WhatIf entry point
// matches the primitive it translates to.
func TestWhatIfIsScenarioTranslation(t *testing.T) {
	const ranks = 4
	app := scenarioApp()
	plat := network.TestbedFor("cg", ranks).Platform()

	got, err := WhatIf(context.Background(), engine.New(2), app, ranks, plat, tracer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run, err := tracer.Trace(app.Name, ranks, tracer.DefaultConfig(), app.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := WhatIfRun(context.Background(), engine.New(2), run, plat)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("what-if wrapper differs from primitive:\n%s\n%s", gotJSON, wantJSON)
	}
}

// TestScenarioRanksAxis sweeps the world size through a factory and
// checks the platform is resized per point.
func TestScenarioRanksAxis(t *testing.T) {
	factory := func(ranks int) (App, error) {
		return App{Name: "cg", Kernel: cg.Kernel(cg.DefaultConfig())}, nil
	}
	res, err := RunScenario(context.Background(), engine.New(4), Scenario{
		Factory: factory, Ranks: 4, Platform: network.TestbedFor("cg", 4).Platform(),
		Flavors: []Flavor{FlavorBase},
		Axes:    []Axis{RanksAxis(2, 4, 8)},
		Output:  OutputFinish,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d points, want 3", len(res.Points))
	}
	digests := map[string]bool{}
	for i, pt := range res.Points {
		if pt.Flavors[0].FinishSec <= 0 {
			t.Fatalf("point %d finish %g", i, pt.Flavors[0].FinishSec)
		}
		digests[pt.Flavors[0].TraceDigest] = true
	}
	if len(digests) != 3 {
		t.Fatalf("ranks axis produced %d distinct traces, want 3", len(digests))
	}
}

// TestScenarioNodesAxisSurvivesRanksAxis: the ranks-axis platform
// resize must not clobber an explicitly swept node count, whatever the
// spec order of the axes — each coordinate owns its own platform field.
func TestScenarioNodesAxisSurvivesRanksAxis(t *testing.T) {
	// Round-robin placement: on one node everything is intra; on four
	// nodes every CG partner pair (0,1), (2,3), ... tears across nodes.
	plat := network.TestbedFor("cg", 4).Platform().WithMapping(network.RoundRobinMapping())
	res, err := RunScenario(context.Background(), engine.New(2), Scenario{
		App: scenarioApp(), Ranks: 4, Platform: plat,
		Flavors: []Flavor{FlavorBase},
		Axes: []Axis{
			NodeCountAxis(1, 4),
			RanksAxis(8),
		},
		Output: OutputTraffic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	one, four := res.Points[0].Flavors[0].Traffic, res.Points[1].Flavors[0].Traffic
	if one.InterBytes != 0 || one.IntraBytes == 0 {
		t.Fatalf("nodes=1 point not all-intra: %+v (node count clobbered by the ranks resize?)", one)
	}
	if four.InterBytes == 0 {
		t.Fatalf("nodes=4 point moved no inter-node bytes: %+v", four)
	}
}

// TestScenarioDedupesIdenticalReplays: a chunks axis varies only the
// overlapped flavors, so the chunk-independent base must replay once for
// the whole sweep — observable as exactly one engine job per distinct
// (program, platform) pair.
func TestScenarioDedupesIdenticalReplays(t *testing.T) {
	const ranks = 4
	eng := engine.New(2)
	before := eng.Stats().Started
	res, err := RunScenario(context.Background(), eng, Scenario{
		App: scenarioApp(), Ranks: ranks, Platform: network.TestbedFor("cg", ranks).Platform(),
		Flavors: []Flavor{FlavorBase, FlavorReal},
		Axes:    []Axis{ChunksAxis(2, 4, 8)},
		Output:  OutputFinish,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 base replay + 3 per-chunk overlap replays = 4 engine jobs.
	if jobs := eng.Stats().Started - before; jobs != 4 {
		t.Fatalf("%d engine jobs for a 3-point two-flavor chunk sweep, want 4 (base deduped)", jobs)
	}
	base := res.Points[0].Flavors[0]
	for i, pt := range res.Points {
		if pt.Flavors[0] != base {
			t.Fatalf("point %d base measure %+v differs from point 0's %+v", i, pt.Flavors[0], base)
		}
	}
}

// TestScenarioValidation rejects malformed specs before any tracing.
func TestScenarioValidation(t *testing.T) {
	const ranks = 4
	plat := network.TestbedFor("cg", ranks).Platform()
	tr := testScenarioTrace()
	cases := []struct {
		name string
		spec Scenario
		want string
	}{
		{"no workload", Scenario{Ranks: ranks, Platform: plat}, "no workload"},
		{"unknown axis", Scenario{App: scenarioApp(), Ranks: ranks, Platform: plat,
			Axes: []Axis{{Kind: "voltage", Values: []float64{1}}}}, "unknown axis"},
		{"duplicate axis", Scenario{App: scenarioApp(), Ranks: ranks, Platform: plat,
			Axes: []Axis{BandwidthAxis(1), BandwidthAxis(2)}}, "duplicate"},
		{"values on count axis", Scenario{App: scenarioApp(), Ranks: ranks, Platform: plat,
			Axes: []Axis{{Kind: AxisChunks, Values: []float64{4}}}}, "takes counts"},
		{"trace mode report", Scenario{Trace: tr, Platform: plat, Output: OutputReport}, "stored trace"},
		{"trace mode chunk axis", Scenario{Trace: tr, Platform: plat,
			Axes: []Axis{ChunksAxis(2)}}, "stored trace"},
		{"wrong flavor for trace", Scenario{Trace: tr, Platform: plat,
			Flavors: []Flavor{FlavorIdeal}}, "cannot measure"},
		{"unknown output", Scenario{App: scenarioApp(), Ranks: ranks, Platform: plat,
			Output: "everything"}, "unknown scenario output"},
		{"bad mapping", Scenario{App: scenarioApp(), Ranks: ranks, Platform: plat,
			Axes: []Axis{MappingAxis("zigzag?")}}, "mapping"},
	}
	for _, tc := range cases {
		_, err := RunScenario(context.Background(), nil, tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// testScenarioTrace builds a tiny valid base trace for trace-mode specs.
func testScenarioTrace() *trace.Trace {
	tr := trace.New("tiny", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 1000})
	tr.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: 1, Bytes: 800, MsgID: 1})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 1, Bytes: 800, MsgID: 1})
	tr.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 500})
	return tr
}
