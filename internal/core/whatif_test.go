package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/tracer"
)

// twoBufferKernel sends two buffers per iteration: "good" is produced
// sequentially (idealizing it gains little), "bad" is packed at the very
// end (idealizing it is where the potential lies).
func twoBufferKernel(n, iters int, work int64) func(p *tracer.Proc) {
	return func(p *tracer.Proc) {
		good := p.NewArray("good", n)
		bad := p.NewArray("bad", n)
		for it := 0; it < iters; it++ {
			if p.Rank() == 0 {
				for i := 0; i < n; i++ {
					p.Compute(work)
					good.Store(i, 1)
				}
				p.Send(1, 1, good)
				p.Compute(work * int64(n))
				for i := 0; i < n; i++ {
					bad.Store(i, 2)
				}
				p.Send(1, 2, bad)
			} else {
				p.Recv(good, 0, 1)
				for i := 0; i < n; i++ {
					p.Compute(work)
					_ = good.Load(i)
				}
				p.Recv(bad, 0, 2)
				for i := 0; i < n; i++ {
					_ = bad.Load(i)
				}
				p.Compute(work * int64(n))
			}
		}
	}
}

// whatIf runs the zero-axis what-if scenario of app on 2 ranks of plat
// and returns its one point's ranking.
func whatIf(app App, plat network.Platform) (*WireWhatIf, error) {
	res, err := RunScenario(context.Background(), nil, Scenario{
		App: app, Ranks: 2, Tracer: tracer.DefaultConfig(), Platform: plat,
		Output: OutputWhatIf, Traces: engine.NewTraceCache(),
	})
	if err != nil {
		return nil, err
	}
	return res.Points[0].WhatIf, nil
}

func TestWhatIfRanksBuffers(t *testing.T) {
	app := App{Name: "twobuf", Kernel: twoBufferKernel(2000, 3, 100)}
	rep, err := whatIf(app, testNet(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Buffers) != 2 {
		t.Fatalf("buffers=%d, want 2", len(rep.Buffers))
	}
	// The list is sorted by marginal gain; idealizing "bad" (packed at
	// the end, consumed instantly) must beat idealizing "good" (already
	// near ideal).
	if rep.Buffers[0].Buffer != "bad" {
		t.Fatalf("ranking: %+v — expected \"bad\" to lead", rep.Buffers)
	}
	if rep.Buffers[0].GainOverReal < rep.Buffers[1].GainOverReal {
		t.Fatal("ranking not sorted by gain")
	}
	for _, b := range rep.Buffers {
		if b.FinishSec <= 0 || b.Speedup <= 0 {
			t.Fatalf("degenerate potential: %+v", b)
		}
	}
}

func TestWhatIfSelectiveBounds(t *testing.T) {
	// Selective idealization must land between the all-real and the
	// all-ideal makespans (allowing a little slack for chunk scheduling
	// noise).
	app := App{Name: "twobuf", Kernel: twoBufferKernel(1500, 3, 80)}
	full, err := Analyze(context.Background(), nil, nil, app, 2, tracer.DefaultConfig(), testNet(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := whatIf(app, testNet(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range rep.Buffers {
		if b.FinishSec > rep.RealFinishSec*1.02 {
			t.Errorf("idealizing %q made things worse: %g vs real %g", b.Buffer, b.FinishSec, rep.RealFinishSec)
		}
		if b.FinishSec < full.Ideal.FinishSec*0.98 {
			t.Errorf("idealizing %q beat the all-ideal run: %g vs %g", b.Buffer, b.FinishSec, full.Ideal.FinishSec)
		}
	}
}

func TestWhatIfFormat(t *testing.T) {
	app := App{Name: "twobuf", Kernel: twoBufferKernel(500, 2, 50)}
	rep, err := whatIf(app, testNet(2))
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	for _, want := range []string{"what-if", "twobuf", "good", "bad", "gain vs real"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestWhatIfRejectsBadNetwork(t *testing.T) {
	app := App{Name: "twobuf", Kernel: twoBufferKernel(100, 1, 10)}
	bad := testNet(2)
	bad.MIPS = 0
	if _, err := whatIf(app, bad); err == nil {
		t.Fatal("invalid network accepted")
	}
}
