package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps/cg"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/telemetry"
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

// TestScenarioReportWhatIfIgnoreFlavors: report and what-if outputs
// replay flavor sets of their own, so two such specs that differ only in
// Flavors are one study: the same spec digest, the same point keys and
// the same result bytes. An unknown flavor is still rejected.
func TestScenarioReportWhatIfIgnoreFlavors(t *testing.T) {
	const ranks = 4
	for _, out := range []OutputKind{OutputReport, OutputWhatIf} {
		plain := Scenario{
			App: scenarioApp(), Ranks: ranks, Platform: scenarioPlatform(t, ranks),
			Axes: []Axis{BandwidthAxis(125, 500)}, Output: out,
		}
		ideal := plain
		ideal.Flavors = []Flavor{FlavorIdeal}
		var digests, keys, results [2][]byte
		for i, spec := range []Scenario{plain, ideal} {
			d, err := spec.Digest()
			if err != nil {
				t.Fatal(err)
			}
			pk, err := spec.PointKeys()
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunScenario(context.Background(), engine.New(2), spec)
			if err != nil {
				t.Fatal(err)
			}
			digests[i] = []byte(d)
			keys[i], _ = json.Marshal(pk)
			results[i], _ = json.Marshal(res)
		}
		if !bytes.Equal(digests[0], digests[1]) || !bytes.Equal(keys[0], keys[1]) {
			t.Errorf("%s: flavors change the study's keys: %s vs %s", out, digests[0], digests[1])
		}
		if !bytes.Equal(results[0], results[1]) {
			t.Errorf("%s: flavors change the result bytes:\n%s\n%s", out, results[0], results[1])
		}
		bad := plain
		bad.Flavors = []Flavor{"overlap-selective"}
		if _, err := bad.Digest(); err == nil || !strings.Contains(err.Error(), "unknown flavor") {
			t.Errorf("%s: flavor %q accepted: %v", out, bad.Flavors[0], err)
		}
	}
}

// TestMappingSweepIsScenarioTranslation proves a mapping-axis traffic
// scenario returns byte-identical JSON to an independent serial replay
// of the same study — the golden-equivalence contract of the planner.
func TestMappingSweepIsScenarioTranslation(t *testing.T) {
	const ranks = 8
	plat := scenarioPlatform(t, ranks)
	app := scenarioApp()
	mappings := []network.Mapping{network.BlockMapping(), network.RoundRobinMapping()}

	res, err := RunScenario(context.Background(), engine.New(4), Scenario{
		App: app, Ranks: ranks, Platform: plat,
		Flavors: []Flavor{FlavorBase, FlavorReal},
		Axes:    []Axis{MappingAxis("block", "rr")},
		Output:  OutputTraffic,
	})
	if err != nil {
		t.Fatal(err)
	}
	// placement is what one point of the study measures.
	type placement struct {
		Mapping                      string
		BaseFinishSec, RealFinishSec float64
		IntraBytes, InterBytes       int64
	}
	got := make([]placement, len(res.Points))
	for i, pt := range res.Points {
		base, real := pt.Flavors[0], pt.Flavors[1]
		got[i] = placement{pt.Coords[0].Value, base.FinishSec, real.FinishSec, base.Traffic.IntraBytes, base.Traffic.InterBytes}
	}

	// Serial reference: trace privately, replay each mapping with the
	// plain simulator — no scenario machinery, no pooled arenas.
	run, err := tracer.Trace(app.Name, ranks, tracer.DefaultConfig(), app.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]placement, 0, len(mappings))
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
		want = append(want, placement{m.String(), baseRes.FinishSec, realRes.FinishSec, ib, eb})
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
		t.Fatalf("scenario differs from serial reference:\n%s\n%s", gotJSON, wantJSON)
	}
}

// TestScenarioRanksAxis sweeps the world size through a factory and
// checks the platform is resized per point.
func TestScenarioRanksAxis(t *testing.T) {
	factory := func(ranks int) (App, error) {
		return App{Name: "cg", Kernel: cg.Kernel(cg.DefaultConfig())}, nil
	}
	res, err := RunScenario(context.Background(), engine.New(4), Scenario{
		Factory: factory, Ranks: 4, Platform: network.TestbedFor("cg", 4),
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
	plat := network.TestbedFor("cg", 4).WithMapping(network.RoundRobinMapping())
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
		App: scenarioApp(), Ranks: ranks, Platform: network.TestbedFor("cg", ranks),
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
	plat := network.TestbedFor("cg", ranks)
	tr := testScenarioTrace(t)
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
		// 2^64 points: the product must not wrap around to an empty grid.
		{"grid size overflow", Scenario{App: scenarioApp(), Ranks: ranks, Platform: plat,
			Axes: overflowingAxes()}, "overflows"},
	}
	for _, tc := range cases {
		_, err := RunScenario(context.Background(), nil, tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestScenarioKernellessAppSharedCache: an app without a kernel fails
// with the planner's error before it reaches a shared trace cache, so
// the cache keeps no failed run under its name and a valid scenario on
// the same cache afterwards returns a fresh run's bytes.
func TestScenarioKernellessAppSharedCache(t *testing.T) {
	const ranks = 8
	ctx := context.Background()
	eng := engine.New(2)
	traces := engine.NewTraceCache()
	plat := scenarioPlatform(t, ranks)
	_, err := RunScenario(ctx, eng, Scenario{
		Factory: func(int) (App, error) { return App{Name: "cg"}, nil },
		Ranks:   ranks, Platform: plat, Traces: traces,
	})
	if want := `core: app "cg" has no kernel`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("kernel-less app: err %v, want %q", err, want)
	}
	valid := Scenario{App: scenarioApp(), Ranks: ranks, Platform: plat}
	fresh, err := RunScenario(ctx, eng, valid)
	if err != nil {
		t.Fatal(err)
	}
	valid.Traces = traces
	shared, err := RunScenario(ctx, eng, valid)
	if err != nil {
		t.Fatalf("valid scenario on the same cache: %v", err)
	}
	b1, _ := json.Marshal(fresh)
	b2, _ := json.Marshal(shared)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("shared-cache result differs from a fresh run:\n%s\n%s", b2, b1)
	}
}

// TestScenarioLibraryRunUsesOneTraceCache: a library scenario without
// Traces still takes every run and program from a trace cache, its own,
// so a chunks axis [2, 3] traces once and builds three programs: base
// once, since it ignores chunks, and overlap-real per chunk count.
func TestScenarioLibraryRunUsesOneTraceCache(t *testing.T) {
	const ranks = 8
	runs := telemetry.Default().Counter("engine_trace_runs_total", "")
	builds := telemetry.Default().CounterVec("engine_program_builds_total", "", "flavor")
	total := func() uint64 {
		return builds.With(engine.FlavorBase).Value() + builds.With(engine.FlavorReal).Value() + builds.With(engine.FlavorIdeal).Value()
	}
	runs0, builds0 := runs.Value(), total()
	if _, err := RunScenario(context.Background(), engine.New(2), Scenario{
		App: scenarioApp(), Ranks: ranks, Platform: scenarioPlatform(t, ranks),
		Axes: []Axis{ChunksAxis(2, 3)},
	}); err != nil {
		t.Fatal(err)
	}
	if r, b := runs.Value()-runs0, total()-builds0; r != 1 || b != 3 {
		t.Fatalf("chunks [2, 3] traced %d times and built %d programs, want 1 and 3", r, b)
	}
}

// overflowingAxes returns eight valid 256-point axes, whose cross
// product of 2^64 points overflows an int.
func overflowingAxes() []Axis {
	const n = 256
	values := func(f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	counts := func(from int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = from + i
		}
		return out
	}
	return []Axis{
		BandwidthAxis(values(func(i int) float64 { return float64(i + 1) })...),
		LatencyAxis(values(func(i int) float64 { return float64(i) * 1e-6 })...),
		BusesAxis(counts(0)...),
		ChunksAxis(counts(1)...),
		NodeCountAxis(counts(1)...),
		DerateAxis(values(func(i int) float64 { return float64(i+1) / n })...),
		JitterAxis(values(func(i int) float64 { return float64(i) / n })...),
		StragglersAxis(counts(0)...),
	}
}

// testScenarioTrace builds a tiny valid base trace for trace-mode specs.
func testScenarioTrace(t *testing.T) *engine.StoredTrace {
	t.Helper()
	tr := trace.New("tiny", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 1000})
	tr.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: 1, Bytes: 800, MsgID: 1})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 1, Bytes: 800, MsgID: 1})
	tr.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 500})
	st, err := engine.NewStoredTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// axisOf rebuilds the axis of the given kind whose points carry the
// given canonical labels (Coord values), in order, parsing each label
// as the kind's point list takes it.
func axisOf(kind AxisKind, labels []string) (Axis, error) {
	list := kind.list()
	if list == listNone {
		return Axis{}, fmt.Errorf("unknown axis kind %q", kind)
	}
	a := Axis{Kind: kind}
	for _, l := range labels {
		switch list {
		case listValues:
			v, err := strconv.ParseFloat(l, 64)
			if err != nil {
				return Axis{}, err
			}
			a.Values = append(a.Values, v)
		case listCounts:
			k, err := strconv.Atoi(l)
			if err != nil {
				return Axis{}, err
			}
			a.Counts = append(a.Counts, k)
		case listMappings:
			a.Mappings = append(a.Mappings, l)
		}
	}
	return a, nil
}

// TestAxisOfRoundTripsPointDigests: the labels of a grid point, read
// back through axisOf, rebuild specs whose points digest exactly like the
// original grid's, on all 11 axis kinds, both as a pinned single point
// (the promise PointKeys makes) and as one zipped group listing every
// point. The kind's point list decides how a label parses.
func TestAxisOfRoundTripsPointDigests(t *testing.T) {
	const ranks = 8
	spec := Scenario{
		App: scenarioApp(), Ranks: ranks, Platform: scenarioPlatform(t, ranks),
		Axes: []Axis{
			BandwidthAxis(125, 312.5),
			LatencyAxis(0, 1.3e-6),
			BusesAxis(0, 6),
			ChunksAxis(2, 4),
			MappingAxis("block", "round-robin"),
			NodeCountAxis(1, 2),
			RanksAxis(4, 8),
			DerateAxis(0.5, 1),
			JitterAxis(0, 0.25),
			StragglersAxis(0, 1),
			LinkDownAxis(0, 1),
		},
	}
	for i := range spec.Axes {
		spec.Axes[i].Zip = "z"
	}
	kinds := map[AxisKind]bool{}
	for _, ax := range spec.Axes {
		kinds[ax.Kind] = true
	}
	if len(kinds) != 11 {
		t.Fatalf("spec covers %d axis kinds, want 11", len(kinds))
	}
	keys, err := spec.PointKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("%d points, want 2", len(keys))
	}
	rebuilt := func(keys []PointKey, zip string) Scenario {
		t.Helper()
		s := spec
		s.Axes = make([]Axis, len(keys[0].Coords))
		for i := range s.Axes {
			labels := make([]string, len(keys))
			for j, k := range keys {
				labels[j] = k.Coords[i].Value
			}
			ax, err := axisOf(keys[0].Coords[i].Axis, labels)
			if err != nil {
				t.Fatal(err)
			}
			ax.Zip = zip
			s.Axes[i] = ax
		}
		return s
	}
	for i, k := range keys {
		d, err := rebuilt([]PointKey{k}, "").Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d != k.Digest {
			t.Errorf("pinned point %d digests %s, want %s", i, d, k.Digest)
		}
	}
	zipped, err := rebuilt(keys, "z").PointKeys()
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if zipped[i].Digest != keys[i].Digest {
			t.Errorf("zipped point %d digests %s, want %s", i, zipped[i].Digest, keys[i].Digest)
		}
	}
	if _, err := axisOf("voltage", []string{"1"}); err == nil {
		t.Error("an unknown kind has a point list")
	}
	if _, err := axisOf(AxisBuses, []string{"1.5"}); err == nil {
		t.Error("the bus axis took a fractional count")
	}
}

// TestAxisRefusesCountsNoPlatformTakes: bus, node and downed-link counts
// above the platform and fault bounds fail validation before any point
// is planned.
func TestAxisRefusesCountsNoPlatformTakes(t *testing.T) {
	for _, ax := range []Axis{
		BusesAxis(network.MaxPoolUnits + 1),
		BusesAxis(4000000000),
		NodeCountAxis(trace.MaxRanks + 1),
		LinkDownAxis(faults.MaxLinkDown + 1),
		LinkDownAxis(2000000000),
	} {
		if err := ax.Validate(); err == nil || !strings.Contains(err.Error(), "must be at most") {
			t.Errorf("%s %v: err %v, want a bound", ax.Kind, ax.Counts, err)
		}
	}
	for _, ax := range []Axis{BusesAxis(network.MaxPoolUnits), NodeCountAxis(trace.MaxRanks), LinkDownAxis(faults.MaxLinkDown)} {
		if err := ax.Validate(); err != nil {
			t.Errorf("%s %v at the bound: %v", ax.Kind, ax.Counts, err)
		}
	}
}
