package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/sim"
)

// faultScenarioPlatform scatters ranks round-robin so neighbor exchanges
// cross nodes: cg at 8 ranks block-mapped is all-intra traffic, which
// the inter-node fault axes (derate, jitter, link-down) never touch.
func faultScenarioPlatform(t *testing.T, ranks int) network.Platform {
	t.Helper()
	return scenarioPlatform(t, ranks).WithMapping(network.RoundRobinMapping())
}

// TestScenarioFaultAxesGrid: the degradation axes expand like any other
// axis — row-major, deterministic across engine widths — and their
// identity points (derate 1, stragglers 0) measure byte-identically to
// the healthy spec, so a degradation sweep embeds its own healthy
// baseline as a grid point.
func TestScenarioFaultAxesGrid(t *testing.T) {
	const ranks = 8
	ctx := context.Background()
	healthy := Scenario{
		App: scenarioApp(), Ranks: ranks, Platform: faultScenarioPlatform(t, ranks),
		Flavors: []Flavor{FlavorBase},
	}
	ref, err := RunScenario(ctx, engine.New(1), healthy)
	if err != nil {
		t.Fatal(err)
	}

	spec := healthy
	spec.Axes = []Axis{
		DerateAxis(1, 0.5),
		StragglersAxis(0, 2),
	}
	first, err := RunScenario(ctx, engine.New(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunScenario(ctx, engine.New(8), spec)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(first)
	b2, _ := json.Marshal(second)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("fault-axis results differ across engines:\n%s\n%s", b1, b2)
	}

	// Row-major, last axis fastest: (1,0) (1,2) (0.5,0) (0.5,2).
	if len(first.Points) != 4 {
		t.Fatalf("%d points, want 4", len(first.Points))
	}
	wantCoords := [][2]string{{"1", "0"}, {"1", "2"}, {"0.5", "0"}, {"0.5", "2"}}
	for i, pt := range first.Points {
		if pt.Coords[0].Axis != AxisDerate || pt.Coords[1].Axis != AxisStragglers {
			t.Fatalf("point %d axes %+v", i, pt.Coords)
		}
		if pt.Coords[0].Value != wantCoords[i][0] || pt.Coords[1].Value != wantCoords[i][1] {
			t.Fatalf("point %d at (%s,%s), want (%s,%s)", i,
				pt.Coords[0].Value, pt.Coords[1].Value, wantCoords[i][0], wantCoords[i][1])
		}
	}
	// The identity point replays byte-identically to the healthy spec.
	base := first.Points[0].Flavors[0].FinishSec
	if math.Float64bits(base) != math.Float64bits(ref.Points[0].Flavors[0].FinishSec) {
		t.Fatalf("identity point finish %.9f, healthy spec %.9f", base, ref.Points[0].Flavors[0].FinishSec)
	}
	// Every degraded point is strictly slower than the baseline.
	for _, i := range []int{1, 2, 3} {
		if got := first.Points[i].Flavors[0].FinishSec; got <= base {
			t.Fatalf("degraded point %d finish %.9f, not slower than baseline %.9f", i, got, base)
		}
	}
}

// TestScenarioDegradationsField: the base platform's Degradations block
// stamps the whole grid, changes the spec digest, and slows the run; the
// zero-valued block is digest-invisible — pre-fault-injection spec
// digests (and their cached results) stay valid.
func TestScenarioDegradationsField(t *testing.T) {
	const ranks = 8
	ctx := context.Background()
	healthy := Scenario{
		App: scenarioApp(), Ranks: ranks, Platform: faultScenarioPlatform(t, ranks),
		Flavors: []Flavor{FlavorBase},
	}
	hd, err := healthy.Digest()
	if err != nil {
		t.Fatal(err)
	}
	zeroed := healthy
	zeroed.Platform.Degradations = faults.Spec{}
	zd, err := zeroed.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if zd != hd {
		t.Fatalf("zero Degradations changed the spec digest: %s vs %s", zd, hd)
	}

	degraded := healthy
	degraded.Platform.Degradations = faults.Spec{StragglerFactor: 4, StragglerRanks: []int{3}}
	dd, err := degraded.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if dd == hd {
		t.Fatal("active Degradations left the spec digest unchanged")
	}
	ref, err := RunScenario(ctx, engine.New(1), healthy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunScenario(ctx, engine.New(1), degraded)
	if err != nil {
		t.Fatal(err)
	}
	if got.Points[0].Flavors[0].FinishSec <= ref.Points[0].Flavors[0].FinishSec {
		t.Fatalf("straggler-degraded run finish %.9f, healthy %.9f",
			got.Points[0].Flavors[0].FinishSec, ref.Points[0].Flavors[0].FinishSec)
	}
}

// TestScenarioFaultAxisValidation: malformed degradation axes, and value
// axes holding NaN or an infinity other than a +Inf bandwidth, are
// rejected up front, before any replay runs, naming the bad value.
func TestScenarioFaultAxisValidation(t *testing.T) {
	const ranks = 8
	base := Scenario{
		App: scenarioApp(), Ranks: ranks, Platform: faultScenarioPlatform(t, ranks),
		Flavors: []Flavor{FlavorBase},
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		ax   Axis
		want string // in the error; non-finite values must be named
	}{
		{DerateAxis(1.5), ""},
		{DerateAxis(-0.5), ""},
		{DerateAxis(0), ""},
		{JitterAxis(-0.1), ""},
		{StragglersAxis(-1), ""},
		{LinkDownAxis(-2), ""},
		{BandwidthAxis(nan), "NaN"},
		{BandwidthAxis(-inf), "-Inf"},
		{LatencyAxis(nan), "NaN"},
		{LatencyAxis(inf), "+Inf"},
		{DerateAxis(nan), "NaN"},
		{DerateAxis(inf), "+Inf"},
		{JitterAxis(nan), "NaN"},
		{JitterAxis(inf), "+Inf"},
	}
	for _, tc := range bad {
		spec := base
		spec.Axes = []Axis{tc.ax}
		if _, err := RunScenario(context.Background(), engine.New(1), spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v%v: err %v, want one naming %q", tc.ax.Kind, tc.ax.Values, tc.ax.Counts, err, tc.want)
		}
	}
	// A link's bandwidth may be +Inf.
	if err := BandwidthAxis(inf).Validate(); err != nil {
		t.Errorf("+Inf bandwidth axis: %v", err)
	}
}

// TestScenarioFaultPointSurfaced: a grid point whose faults sever a
// required path doesn't kill a finish or traffic study — the point
// reports the stall in its Fault field (traffic left null) while healthy
// points in the same grid measure normally. Report and what-if outputs
// have no row to carry a stall, so on the same grid they fail with the
// fault-induced deadlock.
func TestScenarioFaultPointSurfaced(t *testing.T) {
	const ranks = 8
	plat := faultScenarioPlatform(t, ranks)
	if plat.Nodes < 2 {
		t.Fatalf("preset has %d nodes, need >= 2 to sever a link", plat.Nodes)
	}
	spec := Scenario{
		App: scenarioApp(), Ranks: ranks, Platform: plat,
		Flavors: []Flavor{FlavorBase},
		Axes:    []Axis{LinkDownAxis(0, plat.Nodes*(plat.Nodes-1)/2)},
	}
	for _, out := range []OutputKind{OutputFinish, OutputTraffic} {
		spec.Output = out
		res, err := RunScenario(context.Background(), engine.New(2), spec)
		if err != nil {
			t.Fatalf("%s: severed grid point killed the study: %v", out, err)
		}
		if len(res.Points) != 2 {
			t.Fatalf("%s: %d points, want 2", out, len(res.Points))
		}
		okPt, badPt := res.Points[0].Flavors[0], res.Points[1].Flavors[0]
		if okPt.Fault != "" || okPt.FinishSec <= 0 {
			t.Fatalf("%s: healthy point corrupted: %+v", out, okPt)
		}
		if (okPt.Traffic != nil) != (out == OutputTraffic) {
			t.Fatalf("%s: healthy point traffic %+v", out, okPt.Traffic)
		}
		if badPt.Fault == "" {
			t.Fatalf("%s: severed point carries no fault: %+v", out, badPt)
		}
		if !strings.Contains(badPt.Fault, "deadlock") || !strings.Contains(badPt.Fault, "lost") {
			t.Fatalf("%s: fault text %q missing the stall description", out, badPt.Fault)
		}
		if badPt.FinishSec != 0 || badPt.Traffic != nil {
			t.Fatalf("%s: severed point still reports a measurement: %+v", out, badPt)
		}
	}
	for _, out := range []OutputKind{OutputReport, OutputWhatIf} {
		spec.Output = out
		_, err := RunScenario(context.Background(), engine.New(2), spec)
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) || !dl.FaultInduced() {
			t.Fatalf("%s: severed grid point returned %v, want a fault-induced deadlock", out, err)
		}
	}
}
