package specfem

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/tracer"
)

func traceIt(t *testing.T, ranks int, cfg Config) *tracer.Run {
	t.Helper()
	run, err := tracer.Trace("specfem3d", ranks, tracer.DefaultConfig(), Kernel(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestTracesValidate(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 4, 8, 16} {
		run := traceIt(t, ranks, DefaultConfig())
		for _, tr := range []interface{ Validate() error }{run.BaseTrace(), run.OverlapReal(), run.OverlapIdeal()} {
			if err := tr.Validate(); err != nil {
				t.Fatalf("ranks=%d: %v", ranks, err)
			}
		}
	}
}

func TestNeighborsClampedToWorld(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Neighbors = 10
	run := traceIt(t, 3, cfg) // clamps to 2 neighbours
	var isends int
	for _, e := range run.Logs[0].Events() {
		if e.Kind == tracer.EvISend {
			isends++
		}
	}
	if isends != 2*cfg.Iterations {
		t.Fatalf("isends=%d, want %d (clamped neighbours)", isends, 2*cfg.Iterations)
	}
}

func TestExchangePartners(t *testing.T) {
	cfg := DefaultConfig()
	run := traceIt(t, 8, cfg)
	tr := run.BaseTrace()
	for _, pv := range tr.PairVolumes() {
		d := (pv.Dst - pv.Src + 8) % 8
		if d != 1 && d != 2 {
			t.Fatalf("unexpected ring offset %d: %d->%d", d, pv.Src, pv.Dst)
		}
	}
}

func TestImmediateConsumption(t *testing.T) {
	run := traceIt(t, 8, DefaultConfig())
	an := pattern.Analyze(run)
	c := an.AppConsumption
	if c.Nothing > 2 {
		t.Errorf("Nothing=%.2f%%, contributions assemble immediately (paper: 0.032%%)", c.Nothing)
	}
	p := an.AppProduction
	if p.FirstElem < 85 {
		t.Errorf("FirstElem=%.1f%%, contributions pack late (paper: 95.3%%)", p.FirstElem)
	}
	if p.Whole > 99.9 {
		// The pack loop interleaves a little work, so the whole message
		// settles slightly before the send (paper: 98.87%).
		t.Logf("note: whole=%.2f%% — acceptable but tighter than the paper's 98.87%%", p.Whole)
	}
}
