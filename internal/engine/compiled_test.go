package engine

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/pattern"
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

// freshBuild traces and builds one flavor without the cache.
func freshBuild(t *testing.T, name string, cfg tracer.Config, flavor string) *trace.Trace {
	t.Helper()
	run, err := tracer.Trace(name, 2, cfg, compiledKernel)
	if err != nil {
		t.Fatal(err)
	}
	switch flavor {
	case FlavorBase:
		return run.BaseTrace()
	case FlavorReal:
		return run.OverlapReal()
	}
	return run.OverlapIdeal()
}

// TestCompiledTraceMemoizes: the program of one flavour is built once per
// cache entry and shared by every caller, concurrent ones included;
// distinct flavours get distinct programs.
func TestCompiledTraceMemoizes(t *testing.T) {
	c := NewTraceCache()
	cfg := tracer.DefaultConfig()
	builds := mProgramBuilds.With(FlavorBase).Value()
	type pair struct {
		prog   *sim.Program
		digest string
	}
	results := make([]pair, 8)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prog, digest, err := c.CompiledProgram("compiled-app", 2, cfg, compiledKernel, FlavorBase)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = pair{prog: prog, digest: digest}
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(results); g++ {
		if results[g] != results[0] {
			t.Fatal("concurrent CompiledProgram calls returned distinct programs")
		}
	}
	if n := mProgramBuilds.With(FlavorBase).Value() - builds; n != 1 {
		t.Fatalf("8 concurrent callers ran %d base builds, want 1", n)
	}
	real, _, err := c.CompiledProgram("compiled-app", 2, cfg, compiledKernel, FlavorReal)
	if err != nil {
		t.Fatal(err)
	}
	if real == results[0].prog {
		t.Fatal("base and overlap-real flavours share one program")
	}
	if _, _, err := c.CompiledProgram("compiled-app", 2, cfg, compiledKernel, "bogus"); err == nil {
		t.Fatal("unknown flavor accepted")
	}
}

// TestCompiledProgramDigestMemoized: every flavor's memoized digest is
// trace.Digest of a fresh build of that flavor, at the default chunk
// count and at one the run was not traced with; CompiledTrace returns
// the memoized program with a trace of that digest.
func TestCompiledProgramDigestMemoized(t *testing.T) {
	c := NewTraceCache()
	for _, chunks := range []int{4, 7} {
		cfg := tracer.DefaultConfig()
		cfg.Chunks = chunks
		for _, flavor := range []string{FlavorBase, FlavorReal, FlavorIdeal} {
			prog, digest, err := c.CompiledProgram("compiled-app-digest", 2, cfg, compiledKernel, flavor)
			if err != nil {
				t.Fatal(err)
			}
			want, err := trace.Digest(freshBuild(t, "compiled-app-digest", cfg, flavor))
			if err != nil {
				t.Fatal(err)
			}
			if digest != want {
				t.Errorf("chunks %d %s: memoized digest %s, trace.Digest %s", chunks, flavor, digest, want)
			}
			tr, trProg, err := c.CompiledTrace("compiled-app-digest", 2, cfg, compiledKernel, flavor)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := trace.Digest(tr); err != nil || got != digest || trProg != prog {
				t.Errorf("chunks %d %s: CompiledTrace digest %s (%v), same program %v; want %s and the memoized program",
					chunks, flavor, got, err, trProg == prog, digest)
			}
		}
	}
	if c.Len() != 1 {
		t.Fatalf("two chunk counts traced %d runs, want 1", c.Len())
	}
	if _, _, err := c.CompiledProgram("compiled-app-digest", 2, tracer.DefaultConfig(), compiledKernel, "bogus"); err == nil {
		t.Fatal("unknown flavor accepted")
	}
}

// TestCompiledProgramSelectiveFlavor: a SelectiveFlavor program is the
// run's OverlapSelective trace with only that buffer ideal, digested and
// built once per (chunks, buffer) and counted as overlap-selective; the
// bare selective flavor names no buffer and is rejected.
func TestCompiledProgramSelectiveFlavor(t *testing.T) {
	c := NewTraceCache()
	cfg := tracer.DefaultConfig()
	run, err := tracer.Trace("compiled-app-selective", 2, cfg, compiledKernel)
	if err != nil {
		t.Fatal(err)
	}
	builds := mProgramBuilds.With(FlavorSelective).Value()
	for range 2 {
		prog, digest, err := c.CompiledProgram("compiled-app-selective", 2, cfg, compiledKernel, SelectiveFlavor("buf"))
		if err != nil {
			t.Fatal(err)
		}
		tr := run.OverlapSelective(map[string]bool{"buf": true})
		if want, err := trace.Digest(tr); err != nil || digest != want {
			t.Fatalf("selective digest %s, trace.Digest %s (%v)", digest, want, err)
		}
		plat := network.Testbed(2)
		want, err := sim.Run(plat, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sim.NewArena().RunProgram(plat, prog); err != nil || !reflect.DeepEqual(want, got) {
			t.Fatalf("selective program diverges from its trace (%v)", err)
		}
	}
	if b := mProgramBuilds.With(FlavorSelective).Value() - builds; b != 1 {
		t.Fatalf("two requests built %d selective programs, want 1", b)
	}
	if _, _, err := c.CompiledProgram("compiled-app-selective", 2, cfg, compiledKernel, FlavorSelective); err == nil {
		t.Fatal("selective flavor without a buffer accepted")
	}
}

// TestCompiledTraceReplaysIdentically: the cached program replays exactly
// like a fresh build of the same flavor, compiled and replayed one-shot.
func TestCompiledTraceReplaysIdentically(t *testing.T) {
	c := NewTraceCache()
	cfg := tracer.DefaultConfig()
	prog, _, err := c.CompiledProgram("compiled-app-replay", 2, cfg, compiledKernel, FlavorReal)
	if err != nil {
		t.Fatal(err)
	}
	plat := network.Testbed(2)
	want, err := sim.Run(plat, freshBuild(t, "compiled-app-replay", cfg, FlavorReal))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.NewArena().RunProgram(plat, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cached program diverges: finish %g vs %g", want.FinishSec, got.FinishSec)
	}
}

// TestCompiledProgramMemoBounded: more distinct chunk counts than the
// memo holds, requested concurrently, leave it at its bound, and an
// evicted program rebuilds to the same digest.
func TestCompiledProgramMemoBounded(t *testing.T) {
	const bound, counts = 4, 10
	c := NewTraceCache()
	c.progs.SetCapacity(bound)
	digests := make([][counts]string, 4)
	var wg sync.WaitGroup
	for g := range digests {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 1; k <= counts; k++ {
				cfg := tracer.DefaultConfig()
				cfg.Chunks = k
				_, d, err := c.CompiledProgram("compiled-app-bound", 2, cfg, compiledKernel, FlavorReal)
				if err != nil {
					t.Error(err)
					return
				}
				digests[g][k-1] = d
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for g := 1; g < len(digests); g++ {
		if digests[g] != digests[0] {
			t.Fatalf("goroutine %d saw digests %v, goroutine 0 %v", g, digests[g], digests[0])
		}
	}
	if n := c.progs.Len(); n != bound {
		t.Fatalf("memo holds %d programs after %d chunk counts, want the bound %d", n, counts, bound)
	}
	if c.Len() != 1 {
		t.Fatalf("%d chunk counts traced %d runs, want 1", counts, c.Len())
	}
	compiled := func(k int) string {
		t.Helper()
		cfg := tracer.DefaultConfig()
		cfg.Chunks = k
		_, d, err := c.CompiledProgram("compiled-app-bound", 2, cfg, compiledKernel, FlavorReal)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// The last bound chunk counts, used once more, fill the memo, so
	// chunk count 1 is evicted and asking for it again rebuilds it.
	for k := counts - bound + 1; k <= counts; k++ {
		compiled(k)
	}
	builds := mProgramBuilds.With(FlavorReal).Value()
	d := compiled(1)
	if n := mProgramBuilds.With(FlavorReal).Value() - builds; n != 1 {
		t.Fatalf("evicted program rebuilt %d times, want 1", n)
	}
	if d != digests[0][0] {
		t.Fatalf("rebuilt digest %s, first build %s", d, digests[0][0])
	}
	if n := c.progs.Len(); n != bound {
		t.Fatalf("memo holds %d programs after a rebuild, want %d", n, bound)
	}
}

// TestTraceCacheRejectsInvalidConfig: the key ignores Chunks, yet once a
// valid run is cached a chunk count the tracer rejects still fails with
// the tracer's own error, through Trace and through every flavor's
// CompiledProgram, and adds no entry.
func TestTraceCacheRejectsInvalidConfig(t *testing.T) {
	c := NewTraceCache()
	if _, _, err := c.CompiledProgram("compiled-app-invalid", 2, tracer.DefaultConfig(), compiledKernel, FlavorBase); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []tracer.Config{{Chunks: 0}, {Chunks: -1}} {
		_, want := tracer.Trace("compiled-app-invalid", 2, cfg, compiledKernel)
		if want == nil {
			t.Fatalf("tracer accepted %+v", cfg)
		}
		if _, err := c.Trace("compiled-app-invalid", 2, cfg, compiledKernel); err == nil || err.Error() != want.Error() {
			t.Errorf("Trace(%+v) = %v, want %v", cfg, err, want)
		}
		for _, flavor := range []string{FlavorBase, FlavorReal, FlavorIdeal} {
			if _, _, err := c.CompiledProgram("compiled-app-invalid", 2, cfg, compiledKernel, flavor); err == nil || err.Error() != want.Error() {
				t.Errorf("CompiledProgram(%+v, %s) = %v, want %v", cfg, flavor, err, want)
			}
		}
	}
	if c.Len() != 1 {
		t.Fatalf("invalid configs left %d runs, want 1", c.Len())
	}
}

// TestStoredTraceProgramSingleFlight: a stored trace carries the
// trace's content digest, concurrent first Program calls compile once
// and share the program, which replays like a fresh compile, and an
// invalid trace is refused with its validation error.
func TestStoredTraceProgramSingleFlight(t *testing.T) {
	tr := freshBuild(t, "compiled-app-stored", tracer.DefaultConfig(), FlavorReal)
	st, err := NewStoredTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := trace.Digest(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Digest() != digest || st.Trace() != tr {
		t.Fatalf("stored trace digest %s, want %s", st.Digest(), digest)
	}
	progs := make([]*sim.Program, 16)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			prog, err := st.Program()
			if err != nil {
				t.Error(err)
			}
			progs[g] = prog
		}()
	}
	close(start)
	wg.Wait()
	for g, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("caller %d got program %p, caller 0 got %p", g, p, progs[0])
		}
	}
	plat := network.Testbed(2)
	want, err := sim.Run(plat, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.NewArena().RunProgram(plat, progs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("stored program diverges: finish %g vs %g", want.FinishSec, got.FinishSec)
	}

	bad := trace.New("compiled-app-stored", FlavorBase, 3)
	bad.Ranks = bad.Ranks[:2]
	if _, err := NewStoredTrace(bad); err == nil || err.Error() != bad.Validate().Error() {
		t.Fatalf("invalid trace: err %v, want %v", err, bad.Validate())
	}
}

// TestTraceCachePatternsSingleFlight: concurrent callers at several chunk
// counts share one traced run and one pattern analysis, equal to
// pattern.Analyze of a fresh trace; a config tracing reads differently
// analyzes its own run, and an invalid config fails with the tracer's
// error without analyzing.
func TestTraceCachePatternsSingleFlight(t *testing.T) {
	c := NewTraceCache()
	const name = "compiled-app-patterns"
	runs0, analyses0 := mTraceRuns.Value(), mAnalyses.Value()
	ans := make([]*pattern.Analysis, 16)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range ans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := tracer.DefaultConfig()
			cfg.Chunks = 1 + g%4
			<-start
			an, err := c.Patterns(name, 2, cfg, compiledKernel)
			if err != nil {
				t.Error(err)
			}
			ans[g] = an
		}()
	}
	close(start)
	wg.Wait()
	for g, an := range ans {
		if an == nil || an != ans[0] {
			t.Fatalf("caller %d got analysis %p, caller 0 got %p", g, an, ans[0])
		}
	}
	if r, a := mTraceRuns.Value()-runs0, mAnalyses.Value()-analyses0; r != 1 || a != 1 {
		t.Fatalf("16 callers traced %d times and analyzed %d times, want 1 and 1", r, a)
	}
	run, err := tracer.Trace(name, 2, tracer.DefaultConfig(), compiledKernel)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern.FormatTableII([]*pattern.Analysis{pattern.Analyze(run)})
	if got := pattern.FormatTableII(ans[:1]); got != want {
		t.Fatalf("memoized analysis:\n%s\nfresh analysis:\n%s", got, want)
	}

	invalid := tracer.DefaultConfig()
	invalid.Chunks = 0
	_, wantErr := tracer.Trace(name, 2, invalid, compiledKernel)
	if _, err := c.Patterns(name, 2, invalid, compiledKernel); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("Patterns(Chunks=0) = %v, want %v", err, wantErr)
	}
	if mAnalyses.Value()-analyses0 != 1 || c.Len() != 1 {
		t.Fatalf("the invalid config analyzed or cached a run: %d analyses, %d runs", mAnalyses.Value()-analyses0, c.Len())
	}
}
