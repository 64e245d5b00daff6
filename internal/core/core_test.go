package core

import (
	"context"
	"math"
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
	if _, err := Analyze(context.Background(), nil, App{Name: "x"}, 2, testNet(2), tracer.DefaultConfig()); err == nil {
		t.Fatal("nil kernel accepted")
	}
	bad := testNet(2)
	bad.MIPS = 0
	if _, err := Analyze(context.Background(), nil, App{Name: "x", Kernel: pipelineKernel(8, 1, 1)}, 2, bad, tracer.DefaultConfig()); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestAnalyzePipeline(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(4000, 4, 200)}
	rep, err := Analyze(context.Background(), nil, app, 2, testNet(2), tracer.DefaultConfig())
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
		rep, err := Analyze(context.Background(), nil, app, 2, plat, tracer.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []Flavor{FlavorBase, FlavorReal, FlavorIdeal} {
			if rep.TraceOf(f) == nil || rep.ResultOf(f) == nil {
				t.Fatalf("missing artifacts for flavor %s", f)
			}
			// The report keeps the programs it replayed: replaying one
			// again on the report's own platform reproduces its result.
			fin, err := rep.FinishOn(f, rep.Platform)
			if err != nil {
				t.Fatal(err)
			}
			if want := rep.ResultOf(f).FinishSec; fin != want {
				t.Fatalf("%s on %s: FinishOn %g, result %g", f, plat.Describe(), fin, want)
			}
		}
		if rep.TraceOf("nope") != nil || rep.ResultOf("nope") != nil {
			t.Fatal("unknown flavor should be nil")
		}
	}
}

func TestFinishAtHigherBandwidthIsFaster(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(4000, 3, 100)}
	rep, err := Analyze(context.Background(), nil, app, 2, testNet(2), tracer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := rep.FinishOn(FlavorBase, rep.Platform.WithInterBandwidth(10))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := rep.FinishOn(FlavorBase, rep.Platform.WithInterBandwidth(1000))
	if err != nil {
		t.Fatal(err)
	}
	if fast >= slow {
		t.Fatalf("bandwidth had no effect: slow=%g fast=%g", slow, fast)
	}
}

func TestRelaxedBandwidthBelowReference(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(4000, 3, 100)}
	rep, err := Analyze(context.Background(), nil, app, 2, testNet(2), tracer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bw, err := rep.RelaxedBandwidth(FlavorReal)
	if err != nil {
		t.Fatal(err)
	}
	// The overlapped run matches the base at most at the reference
	// bandwidth; overlap-friendly pipelines tolerate much less.
	if ref := rep.Platform.Inter.BandwidthMBps; bw > ref {
		t.Fatalf("relaxed bandwidth %g above reference %g", bw, ref)
	}
	if _, err := rep.RelaxedBandwidth(FlavorBase); err == nil {
		t.Fatal("base flavor must be rejected")
	}
}

func TestEquivalentBandwidthAboveReference(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(4000, 3, 100)}
	rep, err := Analyze(context.Background(), nil, app, 2, testNet(2), tracer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bw, err := rep.EquivalentBandwidth(FlavorReal)
	if err != nil {
		t.Fatal(err)
	}
	// Matching the overlapped run requires at least the reference
	// bandwidth (possibly infinity).
	if ref := rep.Platform.Inter.BandwidthMBps; !math.IsInf(bw, 1) && bw < ref*0.9 {
		t.Fatalf("equivalent bandwidth %g below reference %g", bw, ref)
	}
	if _, err := rep.EquivalentBandwidth(FlavorBase); err == nil {
		t.Fatal("base flavor must be rejected")
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
