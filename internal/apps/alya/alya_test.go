package alya

import (
	"math"
	"testing"

	"repro/internal/pattern"
	"repro/internal/tracer"
)

func traceIt(t *testing.T, ranks int, cfg Config) *tracer.Run {
	t.Helper()
	run, err := tracer.Trace("alya", ranks, tracer.DefaultConfig(), Kernel(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestTracesValidate(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 4, 8} {
		run := traceIt(t, ranks, DefaultConfig())
		for _, tr := range []interface{ Validate() error }{run.BaseTrace(), run.OverlapReal(), run.OverlapIdeal()} {
			if err := tr.Validate(); err != nil {
				t.Fatalf("ranks=%d: %v", ranks, err)
			}
		}
	}
}

func TestReductionsPerIteration(t *testing.T) {
	cfg := DefaultConfig()
	run := traceIt(t, 4, cfg)
	var marks int
	for _, e := range run.Logs[0].Events() {
		if e.Kind == tracer.EvCollSend {
			marks++
		}
	}
	if marks != cfg.Iterations*cfg.InnerReductions {
		t.Fatalf("collective marks=%d, want %d", marks, cfg.Iterations*cfg.InnerReductions)
	}
}

func TestOneElementMessagesNeverChunked(t *testing.T) {
	run := traceIt(t, 4, DefaultConfig())
	real := run.OverlapReal()
	if s := real.Stats(); s.MaxChunkIndex != 0 {
		t.Fatalf("Alya traffic was chunked (max chunk %d)", s.MaxChunkIndex)
	}
	// The overlapped trace must carry the same message count as the base
	// one: nothing can be split.
	if b, r := run.BaseTrace().Stats().Messages, real.Stats().Messages; b != r {
		t.Fatalf("message count changed: base %d, overlap %d", b, r)
	}
}

func TestUnchunkablePatternRow(t *testing.T) {
	run := traceIt(t, 4, DefaultConfig())
	an := pattern.Analyze(run)
	p := an.AppProduction
	if p.Chunkable {
		t.Fatal("Alya must be unchunkable")
	}
	if p.FirstElem < 80 {
		t.Errorf("FirstElem=%.1f%%, accumulator settles just before the reduce (paper: 98.8%%)", p.FirstElem)
	}
	if !math.IsNaN(p.Quarter) || !math.IsNaN(p.Half) || !math.IsNaN(p.Whole) {
		t.Error("partial-message columns must be undefined for one-element messages")
	}
	c := an.AppConsumption
	if c.Nothing > 5 {
		t.Errorf("Nothing=%.1f%%, the reduced scalar steers the solver immediately (paper: 0.4%%)", c.Nothing)
	}
}

func TestReductionValuesCorrect(t *testing.T) {
	// The kernel is symmetric in its *tracked* behaviour: every rank
	// performs the same stores, loads, and collective marks (the raw
	// transfer counts differ per rank — binomial tree roles are not
	// symmetric).
	run := traceIt(t, 4, DefaultConfig())
	countTracked := func(rank int) (n int) {
		for _, e := range run.Logs[rank].Events() {
			switch e.Kind {
			case tracer.EvStore, tracer.EvLoad, tracer.EvCollSend, tracer.EvCollRecv:
				n++
			}
		}
		return n
	}
	want := countTracked(0)
	for r := range run.Logs {
		if got := countTracked(r); got != want {
			t.Fatalf("rank %d has %d tracked events, rank 0 has %d", r, got, want)
		}
	}
}
