package engine

import (
	"fmt"
	"sync"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// TraceCache deduplicates tracer runs across experiments: the first request
// for a (name, ranks, config) triple executes the application under
// instrumentation, every later or concurrent request for the same triple
// shares the one cached *tracer.Run. Concurrent first requests are
// single-flighted — the application is traced exactly once.
//
// Cached runs are shared across goroutines; callers must treat them as
// immutable, which the tracer API guarantees (see tracer.Run). Variant
// building goes through copy-on-write helpers such as Run.WithChunks.
//
// The key deliberately excludes the kernel function: kernels are not
// comparable, so the cache trusts the application name to identify the
// kernel, the invariant the apps registry maintains. Do not share one
// cache between distinct kernels registered under one name.
type TraceCache struct {
	mu sync.Mutex
	m  map[traceKey]*traceEntry
}

type traceKey struct {
	name  string
	ranks int
	cfg   tracer.Config
}

type traceEntry struct {
	once sync.Once
	run  *tracer.Run
	err  error

	// compiled memoizes, per flavor, the built trace together with its
	// replay program and content digest, so repeated sweeps over one
	// cached run share one trace build, one validation, one compilation,
	// and one digest.
	compiledMu sync.Mutex
	compiled   map[string]*compiledFlavor
}

type compiledFlavor struct {
	once   sync.Once
	tr     *trace.Trace
	prog   *sim.Program
	digest string
	err    error
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{m: map[traceKey]*traceEntry{}}
}

// Trace returns the cached run for (name, ranks, cfg), tracing the
// application on a miss. Failed traces are cached too: retrying a
// deterministic failure would only repeat it.
func (c *TraceCache) Trace(name string, ranks int, cfg tracer.Config, kernel func(p *tracer.Proc)) (*tracer.Run, error) {
	return c.entry(name, ranks, cfg).trace(name, ranks, cfg, kernel)
}

// trace resolves the entry's run, tracing on first use.
func (ent *traceEntry) trace(name string, ranks int, cfg tracer.Config, kernel func(p *tracer.Proc)) (*tracer.Run, error) {
	ent.once.Do(func() {
		ent.run, ent.err = tracer.Trace(name, ranks, cfg, kernel)
	})
	return ent.run, ent.err
}

// entry returns (creating if needed) the cache slot for one triple.
func (c *TraceCache) entry(name string, ranks int, cfg tracer.Config) *traceEntry {
	key := traceKey{name: name, ranks: ranks, cfg: cfg}
	c.mu.Lock()
	ent, ok := c.m[key]
	if !ok {
		ent = &traceEntry{}
		c.m[key] = ent
	}
	c.mu.Unlock()
	return ent
}

// Flavor names accepted by CompiledTrace, matching trace.Trace.Flavor.
const (
	FlavorBase  = "base"
	FlavorReal  = "overlap-real"
	FlavorIdeal = "overlap-ideal"
)

// CompiledTrace returns one flavor of the cached run as a validated trace
// plus its compiled replay program. The trace build, validation, and
// compilation all run once per (triple, flavor) and are shared by every
// later caller — the entry point for sweep paths that replay one flavour
// many times.
func (c *TraceCache) CompiledTrace(name string, ranks int, cfg tracer.Config, kernel func(p *tracer.Proc), flavor string) (*trace.Trace, *sim.Program, error) {
	cf, err := c.compile(name, ranks, cfg, kernel, flavor)
	if err != nil {
		return nil, nil, err
	}
	return cf.tr, cf.prog, nil
}

// CompiledProgram returns one flavor's compiled replay program together
// with the content digest of its trace (trace.Digest), both memoized with
// the flavor like CompiledTrace: callers that key results by trace digest
// hash each flavor once, not once per request.
func (c *TraceCache) CompiledProgram(name string, ranks int, cfg tracer.Config, kernel func(p *tracer.Proc), flavor string) (*sim.Program, string, error) {
	cf, err := c.compile(name, ranks, cfg, kernel, flavor)
	if err != nil {
		return nil, "", err
	}
	return cf.prog, cf.digest, nil
}

// compile resolves the memo of one (triple, flavor), tracing, building,
// validating, compiling, and digesting on first use.
func (c *TraceCache) compile(name string, ranks int, cfg tracer.Config, kernel func(p *tracer.Proc), flavor string) (*compiledFlavor, error) {
	ent := c.entry(name, ranks, cfg)
	run, err := ent.trace(name, ranks, cfg, kernel)
	if err != nil {
		return nil, err
	}
	var build func() *trace.Trace
	switch flavor {
	case FlavorBase:
		build = run.BaseTrace
	case FlavorReal:
		build = run.OverlapReal
	case FlavorIdeal:
		build = run.OverlapIdeal
	default:
		return nil, fmt.Errorf("engine: unknown trace flavor %q", flavor)
	}
	ent.compiledMu.Lock()
	if ent.compiled == nil {
		ent.compiled = make(map[string]*compiledFlavor)
	}
	cf, ok := ent.compiled[flavor]
	if !ok {
		cf = &compiledFlavor{}
		ent.compiled[flavor] = cf
	}
	ent.compiledMu.Unlock()
	cf.once.Do(func() {
		tr := build()
		if err := tr.Validate(); err != nil {
			cf.err = fmt.Errorf("engine: generated %s trace invalid: %w", flavor, err)
			return
		}
		prog, err := sim.Compile(tr)
		if err != nil {
			cf.err = err
			return
		}
		digest, err := trace.Digest(tr)
		if err != nil {
			cf.err = err
			return
		}
		cf.tr, cf.prog, cf.digest = tr, prog, digest
	})
	if cf.err != nil {
		return nil, cf.err
	}
	return cf, nil
}

// Len reports how many distinct runs the cache holds (including cached
// failures).
func (c *TraceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Purge empties the cache.
func (c *TraceCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = map[traceKey]*traceEntry{}
}
