package engine

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// compiledKernel is a two-rank exchange with enough records that a replay
// is non-trivial.
func compiledKernel(p *tracer.Proc) {
	buf := p.NewArray("buf", 64)
	for it := 0; it < 4; it++ {
		if p.Rank() == 0 {
			for i := 0; i < 64; i++ {
				p.Compute(500)
				buf.Store(i, float64(i))
			}
			p.Send(1, it, buf)
		} else {
			p.Recv(buf, 0, it)
			for i := 0; i < 64; i++ {
				p.Compute(200)
				_ = buf.Load(i)
			}
		}
	}
}

// TestCompiledTraceMemoizes: the (trace, program) pair of one flavour is
// built once per cache entry and shared by every caller, concurrent ones
// included; distinct flavours get distinct programs.
func TestCompiledTraceMemoizes(t *testing.T) {
	c := NewTraceCache()
	cfg := tracer.DefaultConfig()
	type pair struct {
		tr   any
		prog *sim.Program
	}
	results := make([]pair, 8)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr, prog, err := c.CompiledTrace("compiled-app", 2, cfg, compiledKernel, FlavorBase)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = pair{tr: tr, prog: prog}
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(results); g++ {
		if results[g] != results[0] {
			t.Fatal("concurrent CompiledTrace calls returned distinct trace/program pairs")
		}
	}
	_, real, err := c.CompiledTrace("compiled-app", 2, cfg, compiledKernel, FlavorReal)
	if err != nil {
		t.Fatal(err)
	}
	if real == results[0].prog {
		t.Fatal("base and overlap-real flavours share one program")
	}
	if _, _, err := c.CompiledTrace("compiled-app", 2, cfg, compiledKernel, "bogus"); err == nil {
		t.Fatal("unknown flavor accepted")
	}
}

// TestCompiledProgramDigestMemoized: every flavor's memoized digest is
// trace.Digest of its memoized trace, and CompiledProgram shares the
// program CompiledTrace returns.
func TestCompiledProgramDigestMemoized(t *testing.T) {
	c := NewTraceCache()
	cfg := tracer.DefaultConfig()
	for _, flavor := range []string{FlavorBase, FlavorReal, FlavorIdeal} {
		prog, digest, err := c.CompiledProgram("compiled-app-digest", 2, cfg, compiledKernel, flavor)
		if err != nil {
			t.Fatal(err)
		}
		tr, trProg, err := c.CompiledTrace("compiled-app-digest", 2, cfg, compiledKernel, flavor)
		if err != nil {
			t.Fatal(err)
		}
		want, err := trace.Digest(tr)
		if err != nil {
			t.Fatal(err)
		}
		if digest != want {
			t.Errorf("%s: memoized digest %s, trace.Digest %s", flavor, digest, want)
		}
		if prog != trProg {
			t.Errorf("%s: CompiledProgram and CompiledTrace returned distinct programs", flavor)
		}
	}
	if _, _, err := c.CompiledProgram("compiled-app-digest", 2, cfg, compiledKernel, "bogus"); err == nil {
		t.Fatal("unknown flavor accepted")
	}
}

// TestCompiledTraceReplaysIdentically: the cached program replays exactly
// like the one-shot path over the trace it was compiled from.
func TestCompiledTraceReplaysIdentically(t *testing.T) {
	c := NewTraceCache()
	tr, prog, err := c.CompiledTrace("compiled-app-replay", 2, tracer.DefaultConfig(), compiledKernel, FlavorReal)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.Testbed(2)
	want, err := sim.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunProgram(cfg.Platform(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cached program diverges: finish %g vs %g", want.FinishSec, got.FinishSec)
	}
}

// TestSweepFinishMatchesReplayConfigs: the arena-pooled finish sweep and
// the full-result replay path agree point for point.
func TestSweepFinishMatchesReplayConfigs(t *testing.T) {
	run, err := NewTraceCache().Trace("compiled-app-sweep", 2, tracer.DefaultConfig(), compiledKernel)
	if err != nil {
		t.Fatal(err)
	}
	tr := run.BaseTrace()
	var cfgs []network.Config
	var plats []network.Platform
	for _, bw := range []float64{50, 100, 250, 1000} {
		cfg := network.Testbed(2)
		cfg.BandwidthMBps = bw
		cfgs = append(cfgs, cfg)
		plats = append(plats, cfg.Platform())
	}
	e := New(2)
	results, err := ReplayConfigs(t.Context(), e, cfgs, tr)
	if err != nil {
		t.Fatal(err)
	}
	fins, err := SweepFinish(t.Context(), e, plats, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fins {
		if fins[i] != results[i].FinishSec {
			t.Fatalf("point %d: SweepFinish %g != ReplayConfigs %g", i, fins[i], results[i].FinishSec)
		}
	}
}
