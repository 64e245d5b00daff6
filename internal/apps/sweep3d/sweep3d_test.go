package sweep3d

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/tracer"
)

func TestGridFor(t *testing.T) {
	cases := []struct{ ranks, px, py int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4},
		{9, 3, 3}, {12, 3, 4}, {16, 4, 4}, {64, 8, 8}, {7, 1, 7},
	}
	for _, tc := range cases {
		px, py := gridFor(tc.ranks)
		if px != tc.px || py != tc.py {
			t.Errorf("gridFor(%d)=(%d,%d), want (%d,%d)", tc.ranks, px, py, tc.px, tc.py)
		}
		if px*py != tc.ranks {
			t.Errorf("gridFor(%d) does not cover the ranks", tc.ranks)
		}
	}
}

func TestDefaultConfigRanks(t *testing.T) {
	cfg := DefaultConfig(16)
	if cfg.Ranks() != 16 {
		t.Fatalf("Ranks()=%d, want 16", cfg.Ranks())
	}
	if cfg.Boundary != 600 {
		t.Fatalf("Boundary=%d, the paper's Fig. 5a buffer has 600 elements", cfg.Boundary)
	}
}

func traceIt(t *testing.T, ranks int) *tracer.Run {
	t.Helper()
	cfg := DefaultConfig(ranks)
	run, err := tracer.Trace("sweep3d", ranks, tracer.DefaultConfig(), Kernel(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestKernelRunsOnVariousGrids(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 6, 9, 16} {
		run := traceIt(t, ranks)
		for _, tr := range []interface{ Validate() error }{run.BaseTrace(), run.OverlapReal(), run.OverlapIdeal()} {
			if err := tr.Validate(); err != nil {
				t.Fatalf("ranks=%d: %v", ranks, err)
			}
		}
	}
}

func TestWavefrontCommunicationStructure(t *testing.T) {
	// On a 2x2 grid: rank 0 sends east+south, rank 3 only receives,
	// ranks 1 and 2 do both.
	run := traceIt(t, 4)
	count := func(rank int, kind tracer.EvKind) int {
		n := 0
		for _, e := range run.Logs[rank].Events {
			if e.Kind == kind {
				n++
			}
		}
		return n
	}
	iters := DefaultConfig(4).Iterations
	if got := count(0, tracer.EvSend); got != 2*iters {
		t.Errorf("corner rank sends %d, want %d", got, 2*iters)
	}
	if got := count(0, tracer.EvRecv); got != 0 {
		t.Errorf("corner rank receives %d, want 0", got)
	}
	if got := count(3, tracer.EvRecv); got != 2*iters {
		t.Errorf("sink rank receives %d, want %d", got, 2*iters)
	}
	if got := count(3, tracer.EvSend); got != 0 {
		t.Errorf("sink rank sends %d, want 0", got)
	}
}

func TestProductionPatternShape(t *testing.T) {
	run := traceIt(t, 4)
	an := pattern.Analyze(run)
	p := an.Production["outflow-east"]
	if p == nil {
		t.Fatal("no production stats for the east outflow buffer")
	}
	// The wavefront corner settles around two thirds; the bulk at the end.
	if p.FirstElem < 50 || p.FirstElem > 85 {
		t.Errorf("FirstElem=%.1f%%, want ~66%%", p.FirstElem)
	}
	if p.Quarter < 90 || p.Whole < 99 {
		t.Errorf("tail not back-loaded: quarter=%.1f whole=%.1f", p.Quarter, p.Whole)
	}
	// Consumption is immediate.
	c := an.Consumption["inflow-west"]
	if c == nil {
		t.Fatal("no consumption stats for the west inflow buffer")
	}
	if c.Nothing > 8 {
		t.Errorf("Nothing=%.1f%%, wavefront needs inflow immediately", c.Nothing)
	}
}

func TestBufferRevisits(t *testing.T) {
	// Fig. 5a: every element is "revisited and accessed many times during
	// one production interval" — at least AccumPasses+1 stores per
	// element per iteration on a sending rank.
	cfg := DefaultConfig(4)
	run := traceIt(t, 4)
	stores := map[int]int{}
	var eastID = -1
	for id, name := range run.Logs[0].ArrayNames {
		if name == "outflow-east" {
			eastID = id
		}
	}
	if eastID < 0 {
		t.Fatal("outflow-east not found")
	}
	for _, e := range run.Logs[0].Events {
		if e.Kind == tracer.EvStore && e.Arr() == eastID {
			stores[e.Idx()]++
		}
	}
	wantMin := cfg.Iterations * cfg.AccumPasses
	for idx, n := range stores {
		if n < wantMin {
			t.Fatalf("element %d stored %d times, want >= %d (revisits)", idx, n, wantMin)
		}
	}
	if len(stores) != cfg.Boundary {
		t.Fatalf("only %d of %d elements stored", len(stores), cfg.Boundary)
	}
}
