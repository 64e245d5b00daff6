package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/tracer"
)

// pipelineKernel is a minimal overlap-friendly app: rank 0 produces and
// sends, rank 1 consumes, both sequentially.
func pipelineKernel(n, iters int, work int64) func(p *tracer.Proc) {
	return func(p *tracer.Proc) {
		buf := p.NewArray("pipe", n)
		for it := 0; it < iters; it++ {
			if p.Rank() == 0 {
				for i := 0; i < n; i++ {
					p.Compute(work)
					buf.Store(i, float64(i))
				}
				p.Send(1, 0, buf)
			} else {
				p.Recv(buf, 0, 0)
				for i := 0; i < n; i++ {
					p.Compute(work)
					_ = buf.Load(i)
				}
			}
		}
	}
}

func testNet(procs int) network.Platform {
	return network.Testbed(procs)
}

func TestAnalyzeRejectsBadInputs(t *testing.T) {
	if _, err := Analyze(context.Background(), nil, nil, App{Name: "x"}, 2, tracer.DefaultConfig(), testNet(2)); err == nil {
		t.Fatal("nil kernel accepted")
	}
	bad := testNet(2)
	bad.MIPS = 0
	if _, err := Analyze(context.Background(), nil, nil, App{Name: "x", Kernel: pipelineKernel(8, 1, 1)}, 2, tracer.DefaultConfig(), bad); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestAnalyzePipeline(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(4000, 4, 200)}
	rep, err := Analyze(context.Background(), nil, nil, app, 2, tracer.DefaultConfig(), testNet(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base == nil || rep.Real == nil || rep.Ideal == nil {
		t.Fatal("missing results")
	}
	// Overlap must never slow this pipeline down, and with sequential
	// production/consumption the real overlap should help measurably.
	if rep.SpeedupReal < 1.0 {
		t.Fatalf("real overlap slowed the pipeline: speedup=%.4f", rep.SpeedupReal)
	}
	if rep.SpeedupIdeal < 1.0 {
		t.Fatalf("ideal overlap slowed the pipeline: speedup=%.4f", rep.SpeedupIdeal)
	}
	if rep.SpeedupReal < 1.01 {
		t.Fatalf("sequential pipeline should gain from real overlap, got %.4f", rep.SpeedupReal)
	}
	// Patterns of a sequential pipeline are near ideal.
	p := rep.Patterns.AppProduction
	if math.Abs(p.Quarter-25) > 8 || math.Abs(p.Half-50) > 8 {
		t.Errorf("production pattern off: %+v", p)
	}
}

func TestReportAccessors(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(100, 2, 50)}
	multi, err := network.PlatformPreset("marenostrum-4x", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, plat := range []network.Platform{testNet(2), multi} {
		rep, err := Analyze(context.Background(), nil, nil, app, 2, tracer.DefaultConfig(), plat)
		if err != nil {
			t.Fatal(err)
		}
		// The bandwidth study's reference point replays the report's own
		// platform: its finishes are the report's results.
		needs, err := RunBandwidthNeeds(context.Background(), nil, Scenario{App: app, Ranks: 2, Platform: plat})
		if err != nil {
			t.Fatal(err)
		}
		atRef := map[Flavor]float64{FlavorBase: needs.BaseFinishSec, FlavorReal: needs.Real.FinishSec, FlavorIdeal: needs.Ideal.FinishSec}
		for _, f := range []Flavor{FlavorBase, FlavorReal, FlavorIdeal} {
			if rep.TraceOf(f) == nil || rep.ResultOf(f) == nil {
				t.Fatalf("missing artifacts for flavor %s", f)
			}
			if want := rep.ResultOf(f).FinishSec; atRef[f] != want {
				t.Fatalf("%s on %s: finish at the reference bandwidth %g, report %g", f, plat.Describe(), atRef[f], want)
			}
		}
		if rep.TraceOf("nope") != nil || rep.ResultOf("nope") != nil {
			t.Fatal("unknown flavor should be nil")
		}
	}
}

// pipelineNeeds runs the bandwidth study of a 2-rank pipeline on the
// 250 MB/s testbed.
func pipelineNeeds(t *testing.T) *BandwidthNeeds {
	t.Helper()
	app := App{Name: "pipe", Kernel: pipelineKernel(4000, 3, 100)}
	needs, err := RunBandwidthNeeds(context.Background(), nil, Scenario{App: app, Ranks: 2, Platform: testNet(2)})
	if err != nil {
		t.Fatal(err)
	}
	return needs
}

func TestFinishAtHigherBandwidthIsFaster(t *testing.T) {
	base := pipelineNeeds(t).Base
	if slow, fast := base[0], base[len(base)-2]; fast.FinishSec >= slow.FinishSec {
		t.Fatalf("bandwidth had no effect: %g s at %g MB/s, %g s at %g MB/s",
			slow.FinishSec, slow.BandwidthMBps, fast.FinishSec, fast.BandwidthMBps)
	}
}

func TestRelaxedBandwidthBelowReference(t *testing.T) {
	needs := pipelineNeeds(t)
	// The overlapped run matches the base at most at the reference
	// bandwidth; overlap-friendly pipelines tolerate much less.
	for _, o := range []OverlapNeeds{needs.Real, needs.Ideal} {
		if r := o.Relaxed; r.First > needs.RefMBps || r.Holding > needs.RefMBps {
			t.Fatalf("%s: relaxed bandwidth %+v above reference %g", o.Flavor, r, needs.RefMBps)
		}
	}
}

func TestEquivalentBandwidthAboveReference(t *testing.T) {
	needs := pipelineNeeds(t)
	// Matching a faster overlapped run requires more than the reference
	// bandwidth (possibly infinity).
	for _, o := range []OverlapNeeds{needs.Real, needs.Ideal} {
		if e := o.Equivalent; e.First <= needs.RefMBps || e.Holding <= needs.RefMBps {
			t.Fatalf("%s: equivalent bandwidth %+v not above reference %g", o.Flavor, e, needs.RefMBps)
		}
	}
}

// TestBandwidthNeedsRefusesBadInputs: a reference bandwidth that is not
// finite and positive anchors no grid, and the study sets its own
// flavors, axes and output.
func TestBandwidthNeedsRefusesBadInputs(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(100, 1, 10)}
	for _, bw := range []float64{math.Inf(1), math.NaN(), 0} {
		plat := testNet(2).WithInterBandwidth(bw)
		if _, err := RunBandwidthNeeds(context.Background(), nil, Scenario{App: app, Ranks: 2, Platform: plat}); err == nil ||
			!strings.Contains(err.Error(), "finite and positive") {
			t.Errorf("reference %g MB/s: err %v, want a refusal", bw, err)
		}
	}
	for _, sc := range []Scenario{
		{Flavors: []Flavor{FlavorBase}},
		{Axes: []Axis{BandwidthAxis(125)}},
		{Output: OutputFinish},
	} {
		sc.App, sc.Ranks, sc.Platform = app, 2, testNet(2)
		if _, err := RunBandwidthNeeds(context.Background(), nil, sc); err == nil {
			t.Errorf("spec with flavors %v, axes %v, output %q accepted", sc.Flavors, sc.Axes, sc.Output)
		}
	}
}

// TestBandwidthSweepMonotone: along a bandwidth-axis scenario the base
// flavor's finish never grows as the interconnect gets faster.
func TestBandwidthSweepMonotone(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(2000, 2, 100)}
	res, err := RunScenario(context.Background(), nil, Scenario{
		App: app, Ranks: 2, Platform: testNet(2),
		Flavors: []Flavor{FlavorBase},
		Axes:    []Axis{BandwidthAxis(5, 25, 125, 625)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("series length %d", len(res.Points))
	}
	fins := make([]float64, len(res.Points))
	for i, pt := range res.Points {
		fins[i] = pt.Flavors[0].FinishSec
	}
	for i := 1; i < len(fins); i++ {
		if fins[i] > fins[i-1]*1.0000001 {
			t.Fatalf("finish not monotone in bandwidth: %v", fins)
		}
	}
}
