package bt

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/tracer"
)

func traceIt(t *testing.T, ranks int, cfg Config) *tracer.Run {
	t.Helper()
	run, err := tracer.Trace("bt", ranks, tracer.DefaultConfig(), Kernel(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestTracesValidate(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 8}
	if testing.Short() {
		sizes = []int{1, 2, 4} // the 8-rank trace dominates the cost
	}
	for _, ranks := range sizes {
		run := traceIt(t, ranks, DefaultConfig())
		for _, tr := range []interface{ Validate() error }{run.BaseTrace(), run.OverlapReal(), run.OverlapIdeal()} {
			if err := tr.Validate(); err != nil {
				t.Fatalf("ranks=%d: %v", ranks, err)
			}
		}
	}
}

func TestSingleRankComputesOnly(t *testing.T) {
	run := traceIt(t, 1, DefaultConfig())
	for _, e := range run.Logs[0].Events {
		switch e.Kind {
		case tracer.EvSend, tracer.EvISend, tracer.EvRecv, tracer.EvIRecvPost:
			t.Fatalf("single rank communicated: %+v", e)
		}
	}
}

func TestRingVolume(t *testing.T) {
	cfg := DefaultConfig()
	run := traceIt(t, 4, cfg)
	tr := run.BaseTrace()
	st := tr.Stats()
	wantMsgs := 4 * cfg.Iterations * cfg.Phases
	if st.Messages != wantMsgs {
		t.Fatalf("messages=%d, want %d", st.Messages, wantMsgs)
	}
	for _, pv := range tr.PairVolumes() {
		if (pv.Src+1)%4 != pv.Dst {
			t.Fatalf("non-ring traffic: %d->%d", pv.Src, pv.Dst)
		}
	}
}

func TestFourCopyPasses(t *testing.T) {
	// Fig. 5b: every received element is loaded exactly CopyPasses times
	// per phase.
	cfg := DefaultConfig()
	cfg.Iterations = 2
	run := traceIt(t, 2, cfg)
	var inID = -1
	for id, name := range run.Logs[0].ArrayNames {
		if name == "face-in" {
			inID = id
		}
	}
	loads := map[int]int{}
	for _, e := range run.Logs[0].Events {
		if e.Kind == tracer.EvLoad && e.Arr() == inID {
			loads[e.Idx()]++
		}
	}
	// Phases with consumption: all but the very first.
	phases := cfg.Iterations*cfg.Phases - 1
	for idx, n := range loads {
		if n != phases*cfg.CopyPasses {
			t.Fatalf("element %d loaded %d times, want %d", idx, n, phases*cfg.CopyPasses)
		}
	}
	if len(loads) != cfg.FaceLen {
		t.Fatalf("loaded %d of %d elements", len(loads), cfg.FaceLen)
	}
}

func TestUnfavourablePatterns(t *testing.T) {
	run := traceIt(t, 4, DefaultConfig())
	an := pattern.Analyze(run)
	p := an.AppProduction
	if p.FirstElem < 95 {
		t.Errorf("FirstElem=%.1f%%, pack loop must sit at the very end (paper: 99.1%%)", p.FirstElem)
	}
	c := an.AppConsumption
	if c.Nothing < 8 || c.Nothing > 20 {
		t.Errorf("Nothing=%.1f%%, want ~12-14%% independent work", c.Nothing)
	}
	// The copy passes are tight: quarter/half barely above nothing.
	if c.Half-c.Nothing > 3 {
		t.Errorf("copy bursts not tight: nothing=%.2f half=%.2f", c.Nothing, c.Half)
	}
}
