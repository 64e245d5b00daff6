package engine

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/lru"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// maxPrograms bounds the compiled-program memo. One service scenario may
// sweep 1024 chunk counts, so without a bound a long-lived daemon would
// keep a program for every chunk count ever requested.
const maxPrograms = 1024

// TraceCache is the one place replay programs are built and memoized:
// every scenario's traced runs and programs come from one, the engine's
// shared cache or a cache owned by a single run.
//
// Traced runs are keyed by what tracing reads: the application name and
// the rank count. The chunk count only parameterizes the trace builders,
// so one traced run serves them all: Trace hands each caller
// run.WithChunks(cfg.Chunks). The first request for a key executes the
// application under instrumentation; concurrent first requests are
// single-flighted, so the application is traced exactly once. Runs stay
// for the cache's life, and so does each run's Table II analysis
// (Patterns), which reads only the run's access logs and runs once per
// run, single-flighted the same way.
//
// Programs live in one LRU of maxPrograms entries, each resolved once
// behind its own sync.Once: CompiledProgram keys an application's flavor
// program and trace digest by (traced run, Chunks, flavor) — the base
// flavor ignores Chunks, and a what-if's selective flavor names its
// buffer (SelectiveFlavor) — and drops the built trace once it is
// compiled and digested. A pre-built trace is not keyed here: its
// program belongs to its StoredTrace.
//
// Cached runs and programs are shared across goroutines; callers must
// treat them as immutable, which the tracer and sim APIs guarantee.
//
// The key deliberately excludes the kernel function: kernels are not
// comparable, so the cache trusts the application name to identify the
// kernel, the invariant the apps registry maintains. Do not share one
// cache between distinct kernels registered under one name.
type TraceCache struct {
	mu    sync.Mutex
	runs  map[runKey]*runEntry
	progs *lru.Cache[*progEntry]
}

// runKey is every input tracing reads.
type runKey struct {
	name  string
	ranks int
}

type runEntry struct {
	once sync.Once
	run  *tracer.Run
	err  error

	patOnce sync.Once
	pat     *pattern.Analysis
}

type progEntry struct {
	once   sync.Once
	prog   *sim.Program
	digest string
	err    error
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{runs: map[runKey]*runEntry{}, progs: lru.New[*progEntry](maxPrograms)}
}

// Trace returns the cached run for (name, ranks, cfg), tracing the
// application on a miss; the run's traces build under cfg. An invalid
// cfg fails exactly as tracer.Trace fails. Failed traces are cached too:
// retrying a deterministic failure would only repeat it.
func (c *TraceCache) Trace(name string, ranks int, cfg tracer.Config, kernel func(p *tracer.Proc)) (*tracer.Run, error) {
	ent, err := c.traced(name, ranks, cfg, kernel)
	if err != nil {
		return nil, err
	}
	if ent.run.Cfg == cfg {
		return ent.run, nil
	}
	return ent.run.WithChunks(cfg.Chunks), nil
}

// Patterns returns the Table II production/consumption analysis of the
// cached run (pattern.Analyze), tracing the application on a miss. The
// analysis reads only the run's access logs, never the chunk count, so
// it runs once per traced run, concurrent first
// callers included. The analysis is shared: callers must not modify it.
func (c *TraceCache) Patterns(name string, ranks int, cfg tracer.Config, kernel func(p *tracer.Proc)) (*pattern.Analysis, error) {
	ent, err := c.traced(name, ranks, cfg, kernel)
	if err != nil {
		return nil, err
	}
	ent.patOnce.Do(func() {
		mAnalyses.Inc()
		ent.pat = pattern.Analyze(ent.run)
	})
	return ent.pat, nil
}

// traced returns the resolved entry of the run for (name, ranks, cfg),
// tracing the application once per key.
func (c *TraceCache) traced(name string, ranks int, cfg tracer.Config, kernel func(p *tracer.Proc)) (*runEntry, error) {
	if cfg.Chunks <= 0 {
		// Tracing reads no chunk count, so no cached run can reject it.
		// tracer.Trace validates cfg before it runs the kernel.
		_, err := tracer.Trace(name, ranks, cfg, kernel)
		return nil, err
	}
	key := runKey{name: name, ranks: ranks}
	c.mu.Lock()
	ent, ok := c.runs[key]
	if !ok {
		ent = &runEntry{}
		c.runs[key] = ent
	}
	c.mu.Unlock()
	ent.once.Do(func() {
		mTraceRuns.Inc()
		ent.run, ent.err = tracer.Trace(name, ranks, cfg, kernel)
	})
	return ent, ent.err
}

// Flavor names accepted by CompiledProgram, matching trace.Trace.Flavor.
// FlavorSelective is the flavor of the programs SelectiveFlavor names.
const (
	FlavorBase      = "base"
	FlavorReal      = "overlap-real"
	FlavorIdeal     = "overlap-ideal"
	FlavorSelective = "overlap-selective"
)

// SelectiveFlavor names, for CompiledProgram, the overlap-selective
// program in which only buffer gets the ideal chunk schedule
// (tracer.Run.OverlapSelective): one per buffer of a what-if study.
func SelectiveFlavor(buffer string) string { return FlavorSelective + ":" + buffer }

// flavorBuilder returns the trace builder of one flavor name and the
// flavor of the trace it builds.
func flavorBuilder(flavor string) (func(*tracer.Run) *trace.Trace, string, error) {
	switch flavor {
	case FlavorBase:
		return (*tracer.Run).BaseTrace, flavor, nil
	case FlavorReal:
		return (*tracer.Run).OverlapReal, flavor, nil
	case FlavorIdeal:
		return (*tracer.Run).OverlapIdeal, flavor, nil
	}
	if buffer, ok := strings.CutPrefix(flavor, FlavorSelective+":"); ok {
		ideal := map[string]bool{buffer: true}
		return func(r *tracer.Run) *trace.Trace { return r.OverlapSelective(ideal) }, FlavorSelective, nil
	}
	return nil, "", fmt.Errorf("engine: unknown trace flavor %q", flavor)
}

// CompiledProgram returns one flavor's compiled replay program together
// with the content digest of its trace (trace.Digest). flavor is one of
// the Flavor constants but FlavorSelective, or a SelectiveFlavor name.
// The build, validation, compilation and digest run once per (traced
// run, Chunks, flavor) while the entry stays in the memo, so
// sweep paths that replay one flavor many times, and callers that key
// results by trace digest, pay for them once.
func (c *TraceCache) CompiledProgram(name string, ranks int, cfg tracer.Config, kernel func(p *tracer.Proc), flavor string) (*sim.Program, string, error) {
	build, built, err := flavorBuilder(flavor)
	if err != nil {
		return nil, "", err
	}
	run, err := c.Trace(name, ranks, cfg, kernel)
	if err != nil {
		return nil, "", err
	}
	chunks := cfg.Chunks
	if flavor == FlavorBase {
		chunks = 0 // the base trace is chunk-independent
	}
	ent := c.entry(fmt.Sprintf("%q/%d/%d/%s", name, ranks, chunks, flavor))
	ent.once.Do(func() {
		mProgramBuilds.With(built).Inc()
		ent.prog, ent.digest, ent.err = compileFlavor(build(run), flavor)
	})
	return ent.prog, ent.digest, ent.err
}

// CompiledTrace returns one flavor of the cached run as a trace together
// with its memoized program (see CompiledProgram). The cache keeps no
// built traces, so every call builds the trace again; callers that need
// only the program or the digest should call CompiledProgram.
func (c *TraceCache) CompiledTrace(name string, ranks int, cfg tracer.Config, kernel func(p *tracer.Proc), flavor string) (*trace.Trace, *sim.Program, error) {
	prog, _, err := c.CompiledProgram(name, ranks, cfg, kernel, flavor)
	if err != nil {
		return nil, nil, err
	}
	run, err := c.Trace(name, ranks, cfg, kernel)
	if err != nil {
		return nil, nil, err
	}
	build, _, _ := flavorBuilder(flavor) // CompiledProgram accepted the flavor
	return build(run), prog, nil
}

// compileFlavor validates, compiles and digests one built trace.
func compileFlavor(tr *trace.Trace, flavor string) (*sim.Program, string, error) {
	if err := tr.Validate(); err != nil {
		return nil, "", fmt.Errorf("engine: generated %s trace invalid: %w", flavor, err)
	}
	prog, err := sim.Compile(tr)
	if err != nil {
		return nil, "", err
	}
	digest, err := trace.Digest(tr)
	if err != nil {
		return nil, "", err
	}
	return prog, digest, nil
}

// entry returns the memo entry under key, adding an unresolved one on
// a miss. Concurrent callers of one key get the same entry.
func (c *TraceCache) entry(key string) *progEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.progs.Get(key)
	if !ok {
		ent = &progEntry{}
		c.progs.Put(key, ent)
	}
	return ent
}

// Len reports how many distinct traced runs the cache holds (including
// cached failures).
func (c *TraceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runs)
}

// StoredTrace is a pre-built trace together with what is built from it:
// its content address, computed once, and its replay program, compiled
// on first use. It is the one form a stored trace takes, so the program
// lives exactly as long as something holds the trace. The fields are
// unexported and NewStoredTrace is the only constructor, so the digest
// is always the trace's own.
type StoredTrace struct {
	tr     *trace.Trace
	digest string

	once sync.Once
	prog *sim.Program
	err  error
}

// NewStoredTrace validates tr and computes its content digest
// (trace.Digest). The value shares tr, which must not change afterwards.
func NewStoredTrace(tr *trace.Trace) (*StoredTrace, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	digest, err := trace.Digest(tr)
	if err != nil {
		return nil, err
	}
	return &StoredTrace{tr: tr, digest: digest}, nil
}

// Trace returns the validated trace; callers must not modify it.
func (s *StoredTrace) Trace() *trace.Trace { return s.tr }

// Digest returns the trace's content address ("sha256:…").
func (s *StoredTrace) Digest() string { return s.digest }

// Program returns the trace's compiled replay program, compiling it on
// the first call; concurrent first callers share one compile.
func (s *StoredTrace) Program() (*sim.Program, error) {
	s.once.Do(func() { s.prog, s.err = sim.Compile(s.tr) })
	return s.prog, s.err
}
