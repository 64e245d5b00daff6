// Package core is the public face of the framework: it chains the tracer
// (Valgrind equivalent), the replay simulator (Dimemas equivalent), the
// pattern analyzer, and the visualization layer into the pipeline the
// paper describes in Section III.
//
// One Analyze call performs what the paper's Figure 3 shows: the
// application executes once under instrumentation, the tracer emits the
// non-overlapped trace plus the two overlapped traces, Dimemas-style replay
// reconstructs all three time behaviours on the configured platform, and
// the results are bundled with the production/consumption pattern analysis.
// It is the one path that replays the three flavours in full, for readers
// of a timeline: Paraver views, critical paths and per-rank accounting.
// A study that reads only makespans, traffic or what-if rankings is a
// Scenario (RunScenario, RunScenarioStream, RunBandwidthNeeds), whose
// points replay summaries, and Table II reads the trace cache's patterns
// without replaying at all.
package core

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// App is an application kernel the framework can analyze.
type App struct {
	// Name labels traces and reports (lower-case, e.g. "cg").
	Name string
	// Kernel runs one rank of the application against the instrumented
	// API.
	Kernel func(p *tracer.Proc)
}

// Flavor selects one of the three reconstructed executions.
type Flavor string

// The three execution flavours of the paper.
const (
	FlavorBase  Flavor = "base"
	FlavorReal  Flavor = "overlap-real"
	FlavorIdeal Flavor = "overlap-ideal"
)

// Report is the full output of one analysis.
type Report struct {
	App   string
	Ranks int
	// Platform is the (possibly hierarchical) platform the report was
	// computed on; a flat one is the one-rank-per-node form.
	Platform network.Platform

	// Results are the three reconstructed time behaviours on Platform.
	Base, Real, Ideal *sim.Result

	// SpeedupReal and SpeedupIdeal compare overlapped flavours against
	// the non-overlapped execution (Fig. 6a).
	SpeedupReal, SpeedupIdeal float64

	// Patterns holds the Table II / Fig. 5 analysis. It is the trace
	// cache's memoized analysis of the run, shared with every report on
	// that run: treat it as read-only.
	Patterns *pattern.Analysis

	// run is the traced run the flavours build from; TraceOf rebuilds a
	// trace from it on demand.
	run *tracer.Run
	// digests holds each flavour's trace digest in report order, the
	// trace cache's own, for Wire. Read-only after Analyze.
	digests []string
}

// flavors lists the three execution flavours in report order.
var flavors = []Flavor{FlavorBase, FlavorReal, FlavorIdeal}

// Analyze reconstructs the three execution flavours of app on ranks
// processes on the given platform, each replayed in full: the timelines,
// comm logs and per-rank accounting a Paraver view, a critical path or a
// per-flavour table reads. Studies that read only makespans or traffic
// are scenarios (RunScenario), and Table II reads TraceCache.Patterns.
//
// Everything that does not depend on the platform comes from traces: the
// traced run, each flavour's compiled program and trace digest, and the
// Table II analysis. Callers that trace through the engine's shared cache
// (Engine.Traces) analyze one traced execution under many platforms and
// chunk counts without re-tracing, rebuilding or re-hashing a trace. A nil
// traces uses a cache of the call's own, as Scenario.Traces does; traces
// identifies kernels by app name (see engine.TraceCache), so an app whose
// kernel is not the registry's belongs in a cache of its own. Each
// flavour's replay is one engine job on eng (nil selects the default
// engine).
func Analyze(ctx context.Context, eng *engine.Engine, traces *engine.TraceCache, app App, ranks int, tCfg tracer.Config, plat network.Platform) (*Report, error) {
	if app.Kernel == nil {
		return nil, fmt.Errorf("core: app %q has no kernel", app.Name)
	}
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if traces == nil {
		traces = engine.NewTraceCache()
	}
	run, err := traces.Trace(app.Name, ranks, tCfg, app.Kernel)
	if err != nil {
		return nil, fmt.Errorf("core: tracing %q: %w", app.Name, err)
	}
	digests := make([]string, len(flavors)) // job i writes only its own slot
	outs, err := engine.Map(ctx, eng, len(flavors), func(ctx context.Context, i int) (*sim.Result, error) {
		f := flavors[i]
		prog, digest, err := traces.CompiledProgram(app.Name, ranks, tCfg, app.Kernel, string(f))
		if err != nil {
			return nil, fmt.Errorf("core: replaying %s: %w", f, err)
		}
		digests[i] = digest
		res, err := sim.ReplayInto(plat, prog, 1, new(sim.Result))
		if err != nil {
			return nil, fmt.Errorf("core: replaying %s: %w", f, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	pat, err := traces.Patterns(app.Name, ranks, tCfg, app.Kernel)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		App: run.Name, Ranks: run.NumRanks, Platform: plat,
		Base: outs[0], Real: outs[1], Ideal: outs[2],
		Patterns: pat,
		run:      run,
		digests:  digests,
	}
	rep.SpeedupReal = metrics.Speedup(rep.Base.FinishSec, rep.Real.FinishSec)
	rep.SpeedupIdeal = metrics.Speedup(rep.Base.FinishSec, rep.Ideal.FinishSec)
	return rep, nil
}

// TraceOf builds the generated trace of one flavour from the report's
// traced run (nil for an unknown flavour). The report keeps only each
// trace's digest, so every call builds the trace again.
func (r *Report) TraceOf(f Flavor) *trace.Trace {
	switch f {
	case FlavorBase:
		return r.run.BaseTrace()
	case FlavorReal:
		return r.run.OverlapReal()
	case FlavorIdeal:
		return r.run.OverlapIdeal()
	default:
		return nil
	}
}

// ResultOf returns the reconstructed behaviour of one flavour on the
// report's platform.
func (r *Report) ResultOf(f Flavor) *sim.Result {
	switch f {
	case FlavorBase:
		return r.Base
	case FlavorReal:
		return r.Real
	case FlavorIdeal:
		return r.Ideal
	default:
		return nil
	}
}
