package pop

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/tracer"
)

func traceIt(t *testing.T, ranks int, cfg Config) *tracer.Run {
	t.Helper()
	run, err := tracer.Trace("pop", ranks, tracer.DefaultConfig(), Kernel(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestTracesValidateOnVariousGrids(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 6, 9, 16} {
		run := traceIt(t, ranks, DefaultConfig(ranks))
		for _, tr := range []interface{ Validate() error }{run.BaseTrace(), run.OverlapReal(), run.OverlapIdeal()} {
			if err := tr.Validate(); err != nil {
				t.Fatalf("ranks=%d: %v", ranks, err)
			}
		}
	}
}

func TestDegenerateGridsSkipMissingDimensions(t *testing.T) {
	// 1xN grids must not self-send on the east/west axis.
	cfg := DefaultConfig(2) // gridFor(2) = 1x2
	if cfg.Px != 1 || cfg.Py != 2 {
		t.Fatalf("unexpected grid %dx%d", cfg.Px, cfg.Py)
	}
	run := traceIt(t, 2, cfg)
	for _, e := range run.Logs[0].Events {
		if e.Kind == tracer.EvISend && run.Logs[0].Comm(e).Peer == 0 {
			t.Fatalf("self send: %+v", e)
		}
	}
}

func TestTorusNeighbourTraffic(t *testing.T) {
	cfg := DefaultConfig(4) // 2x2 torus
	run := traceIt(t, 4, cfg)
	tr := run.BaseTrace()
	// On a 2x2 torus every rank exchanges with exactly 2 distinct
	// neighbours (east==west, north==south) plus the reduction tree.
	vols := tr.PairVolumes()
	seen := map[[2]int]bool{}
	for _, pv := range vols {
		seen[[2]int{pv.Src, pv.Dst}] = true
	}
	// Halo traffic from rank 0: east/west both to rank 1, north/south to
	// rank 2.
	if !seen[[2]int{0, 1}] || !seen[[2]int{0, 2}] {
		t.Fatalf("missing 2x2 torus neighbours in %v", vols)
	}
}

func TestHaloCountsAndReduction(t *testing.T) {
	cfg := DefaultConfig(16)
	run := traceIt(t, 16, cfg)
	var isends, raws int
	for _, e := range run.Logs[0].Events {
		switch e.Kind {
		case tracer.EvISend:
			isends++
		case tracer.EvSendRaw:
			raws++
		}
	}
	if isends != 4*cfg.Iterations {
		t.Fatalf("halo isends=%d, want %d", isends, 4*cfg.Iterations)
	}
	if raws == 0 {
		t.Fatal("the barotropic Allreduce must produce raw transfers")
	}
}

func TestPOPPatterns(t *testing.T) {
	run := traceIt(t, 16, DefaultConfig(16))
	an := pattern.Analyze(run)
	p := an.AppProduction
	if p.FirstElem < 85 {
		t.Errorf("FirstElem=%.1f%%, halos pack late (paper: 95.5%%)", p.FirstElem)
	}
	c := an.AppConsumption
	if c.Nothing < 1 || c.Nothing > 10 {
		t.Errorf("Nothing=%.1f%%, want the small independent prefix (paper: 3.5%%)", c.Nothing)
	}
	if c.Half-c.Nothing > 5 {
		t.Errorf("unpack must be tight: nothing=%.2f half=%.2f", c.Nothing, c.Half)
	}
}
