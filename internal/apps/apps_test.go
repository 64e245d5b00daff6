package apps

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/tracer"
)

func TestByNameKnowsTheWholePool(t *testing.T) {
	for _, name := range Names {
		e, ok := ByName(name, 16)
		if !ok {
			t.Fatalf("unknown app %q", name)
		}
		if e.App.Name != name || e.App.Kernel == nil || e.Description == "" {
			t.Fatalf("incomplete entry for %q: %+v", name, e)
		}
	}
	if _, ok := ByName("does-not-exist", 4); ok {
		t.Fatal("unknown app accepted")
	}
}

func TestByNameScaled(t *testing.T) {
	scaledNames := Names
	if testing.Short() {
		// The 2x-size traces of the full pool dominate this test's cost;
		// one representative app keeps the scaling contract covered.
		scaledNames = []string{"cg"}
	}
	for _, name := range scaledNames {
		small, ok := ByNameScaled(name, 4, Scale{SizeScale: 0.5, IterScale: 1})
		if !ok {
			t.Fatalf("unknown app %q", name)
		}
		big, _ := ByNameScaled(name, 4, Scale{SizeScale: 2, IterScale: 1})
		runS, err := tracer.Trace(name, 4, tracer.DefaultConfig(), small.App.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		runB, err := tracer.Trace(name, 4, tracer.DefaultConfig(), big.App.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		bs := runS.BaseTrace().Stats()
		bb := runB.BaseTrace().Stats()
		if bb.BytesSent <= bs.BytesSent {
			t.Errorf("%s: size scaling had no effect: %d vs %d bytes", name, bs.BytesSent, bb.BytesSent)
		}
	}
	// Iteration scaling multiplies the message count.
	short, _ := ByNameScaled("cg", 4, Scale{SizeScale: 1, IterScale: 0.5})
	long, _ := ByNameScaled("cg", 4, Scale{SizeScale: 1, IterScale: 2})
	runS, err := tracer.Trace("cg", 4, tracer.DefaultConfig(), short.App.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	runL, err := tracer.Trace("cg", 4, tracer.DefaultConfig(), long.App.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if runL.BaseTrace().Stats().Messages <= runS.BaseTrace().Stats().Messages {
		t.Error("iteration scaling had no effect on message count")
	}
	// Degenerate scales clamp to the default.
	if _, ok := ByNameScaled("cg", 4, Scale{SizeScale: -1, IterScale: 0}); !ok {
		t.Error("degenerate scale rejected instead of clamped")
	}
}

func TestAllReturnsPaperOrder(t *testing.T) {
	entries := All(16)
	if len(entries) != 6 {
		t.Fatalf("pool size %d, want 6", len(entries))
	}
	for i, e := range entries {
		if e.App.Name != Names[i] {
			t.Fatalf("pool order broken at %d: %s", i, e.App.Name)
		}
	}
}

// analyzeApp runs the full pipeline for one pool application on its
// calibrated testbed.
func analyzeApp(t *testing.T, name string, ranks int) *core.Report {
	t.Helper()
	e, ok := ByName(name, ranks)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	rep, err := core.Analyze(context.Background(), nil, e.App, ranks, network.TestbedFor(name, ranks).Platform(), tracer.DefaultConfig())
	if err != nil {
		t.Fatalf("analyze %s: %v", name, err)
	}
	return rep
}

func TestAllAppsProduceValidTracesAndReplays(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep := analyzeApp(t, name, 8)
			for _, f := range []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal} {
				tr := rep.TraceOf(f)
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s trace invalid: %v", f, err)
				}
				if rep.ResultOf(f).FinishSec <= 0 {
					t.Fatalf("%s finish not positive", f)
				}
			}
			// Byte volume conserved across flavours.
			b := rep.BaseTrace.Stats().BytesSent
			if rep.RealTrace.Stats().BytesSent != b || rep.IdealTrace.Stats().BytesSent != b {
				t.Fatal("chunking changed byte volume")
			}
		})
	}
}

func TestOverlapNeverSlowsAppsMeaningfully(t *testing.T) {
	// The overlapped executions may pay small chunking overheads but a
	// slowdown beyond a few percent would indicate a transformation bug.
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep := analyzeApp(t, name, 8)
			if rep.SpeedupReal < 0.95 {
				t.Errorf("real overlap slowdown: %.3f", rep.SpeedupReal)
			}
			if rep.SpeedupIdeal < 0.95 {
				t.Errorf("ideal overlap slowdown: %.3f", rep.SpeedupIdeal)
			}
		})
	}
}

// TestTableIIShapes checks the qualitative pattern properties the paper
// reports per application (Table II), with generous tolerances: the claim
// under test is the *shape*, not the third digit.
func TestTableIIShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("16-rank traces of the full pool; the shape claims need the paper's problem size")
	}
	ranks := 16
	stats := map[string]*pattern.Analysis{}
	for _, name := range Names {
		e, _ := ByName(name, ranks)
		run, err := tracer.Trace(name, ranks, tracer.DefaultConfig(), e.App.Kernel)
		if err != nil {
			t.Fatalf("trace %s: %v", name, err)
		}
		stats[name] = pattern.Analyze(run)
	}

	// Production: BT, POP, SPECFEM3D produce very late (>90%); Sweep3D's
	// first element settles around two thirds with the bulk at the end;
	// CG is near linear.
	for _, name := range []string{"bt", "pop", "specfem3d"} {
		p := stats[name].AppProduction
		if p.FirstElem < 85 {
			t.Errorf("%s: FirstElem=%.1f%%, want late (>85)", name, p.FirstElem)
		}
	}
	sw := stats["sweep3d"].AppProduction
	if sw.FirstElem < 50 || sw.FirstElem > 85 {
		t.Errorf("sweep3d: FirstElem=%.1f%%, want around two thirds", sw.FirstElem)
	}
	if sw.Quarter < 90 {
		t.Errorf("sweep3d: Quarter=%.1f%%, want the bulk at the very end", sw.Quarter)
	}
	cgp := stats["cg"].AppProduction
	if math.Abs(cgp.Quarter-25) > 10 || math.Abs(cgp.Half-50) > 10 {
		t.Errorf("cg production not near-linear: quarter=%.1f half=%.1f", cgp.Quarter, cgp.Half)
	}
	if cgp.FirstElem > 10 {
		t.Errorf("cg: FirstElem=%.1f%%, want small prelude", cgp.FirstElem)
	}

	// Alya: single-element reductions cannot be chunked.
	al := stats["alya"].AppProduction
	if al.Chunkable {
		t.Error("alya must be unchunkable")
	}
	if al.FirstElem < 80 {
		t.Errorf("alya: FirstElem=%.1f%%, accumulator settles late", al.FirstElem)
	}

	// Consumption: Sweep3D and SPECFEM3D need data immediately; POP has
	// a small independent prefix; BT has ~14%; CG is near linear.
	if c := stats["sweep3d"].AppConsumption; c.Nothing > 8 {
		t.Errorf("sweep3d: Nothing=%.2f%%, want immediate consumption", c.Nothing)
	}
	if c := stats["specfem3d"].AppConsumption; c.Nothing > 2 {
		t.Errorf("specfem3d: Nothing=%.2f%%, want immediate consumption", c.Nothing)
	}
	popc := stats["pop"].AppConsumption
	if popc.Nothing < 1 || popc.Nothing > 10 {
		t.Errorf("pop: Nothing=%.2f%%, want a small independent prefix", popc.Nothing)
	}
	if popc.Half-popc.Nothing > 5 {
		t.Errorf("pop: consumption must be a tight unpack burst: nothing=%.2f half=%.2f", popc.Nothing, popc.Half)
	}
	btc := stats["bt"].AppConsumption
	if btc.Nothing < 8 || btc.Nothing > 20 {
		t.Errorf("bt: Nothing=%.2f%%, want ~14%% independent work", btc.Nothing)
	}
	if btc.Half-btc.Nothing > 3 {
		t.Errorf("bt: copy passes must be tight: nothing=%.2f half=%.2f", btc.Nothing, btc.Half)
	}
	cgc := stats["cg"].AppConsumption
	if math.Abs(cgc.Quarter-25) > 12 || math.Abs(cgc.Half-50) > 15 {
		t.Errorf("cg consumption not near-linear: quarter=%.1f half=%.1f", cgc.Quarter, cgc.Half)
	}
	if c := stats["alya"].AppConsumption; c.Nothing > 5 {
		t.Errorf("alya: Nothing=%.2f%%, result consumed immediately", c.Nothing)
	}
}

// TestFig6aOrdering checks the headline Fig. 6a claims: CG is the only app
// whose measured (real) patterns produce a clear speedup, and Sweep3D gains
// the most from ideal patterns.
func TestFig6aOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("16-rank analyses of the full pool; the ordering claims need the paper's problem size")
	}
	ranks := 16
	speedReal := map[string]float64{}
	speedIdeal := map[string]float64{}
	for _, name := range Names {
		rep := analyzeApp(t, name, ranks)
		speedReal[name] = rep.SpeedupReal
		speedIdeal[name] = rep.SpeedupIdeal
	}
	if speedReal["cg"] < 1.03 {
		t.Errorf("cg real speedup %.3f, want a visible gain (paper: ~8%%)", speedReal["cg"])
	}
	for _, name := range []string{"bt", "pop", "alya", "specfem3d"} {
		if speedReal[name] > speedReal["cg"] {
			t.Errorf("%s real speedup %.3f exceeds cg %.3f; cg should lead", name, speedReal[name], speedReal["cg"])
		}
	}
	for _, name := range Names {
		if name == "sweep3d" {
			continue
		}
		if speedIdeal[name] > speedIdeal["sweep3d"]+1e-9 {
			t.Errorf("%s ideal speedup %.3f exceeds sweep3d %.3f; sweep3d should lead",
				name, speedIdeal[name], speedIdeal["sweep3d"])
		}
	}
	if a := speedIdeal["alya"]; math.Abs(a-1) > 0.02 {
		t.Errorf("alya ideal speedup %.3f, want ~1 (unchunkable)", a)
	}
}
