package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/tracer"
)

// What-if analysis: which buffer's production/consumption pattern limits
// the overlap? For every communicated buffer, the analysis rebuilds the
// overlapped trace with *only that buffer* given the ideal schedule (all
// others keep their measured patterns) and replays it. The resulting
// ranking tells a developer which buffer to restructure first — the
// bottleneck-identification workflow the paper describes for its Paraver
// views, quantified.

// BufferPotential is the outcome of idealizing one buffer.
type BufferPotential struct {
	// Buffer is the tracked array name.
	Buffer string
	// FinishSec is the makespan with only this buffer idealized.
	FinishSec float64
	// Speedup compares against the non-overlapped execution.
	Speedup float64
	// GainOverReal is the speedup relative to the all-real overlapped
	// execution: the marginal value of restructuring just this buffer.
	GainOverReal float64
}

// WhatIf runs the per-buffer idealization study for an application on the
// given platform under eng (nil selects the default engine). It is a thin
// wrapper over a what-if-output scenario spec with no sweep axes: the
// application is traced once and len(buffers)+2 traces replay across the
// engine.
func WhatIf(ctx context.Context, eng *engine.Engine, app App, ranks int, plat network.Platform, tCfg tracer.Config) (*WhatIfReport, error) {
	if app.Kernel == nil {
		return nil, fmt.Errorf("core: app %q has no kernel", app.Name)
	}
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	res, err := RunScenario(ctx, eng, Scenario{
		App: app, Ranks: ranks, Tracer: tCfg, Platform: plat, Output: OutputWhatIf,
	})
	if err != nil {
		return nil, err
	}
	w := res.Points[0].WhatIf
	return &WhatIfReport{
		App:           w.App,
		BaseFinishSec: w.BaseFinishSec,
		RealFinishSec: w.RealFinishSec,
		Buffers:       w.Buffers,
	}, nil
}

// WhatIfRun is the fan-out half of WhatIf for an already-traced run —
// the entry point for callers that trace through the engine's shared
// cache and reuse one run across several studies.
func WhatIfRun(ctx context.Context, eng *engine.Engine, run *tracer.Run, plat network.Platform) (*WhatIfReport, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	// Every replay of the study retains only its makespan, so all of them
	// run as compiled programs on pooled arenas.
	refs, err := engine.Map(ctx, eng, 2, func(ctx context.Context, i int) (float64, error) {
		tr := run.BaseTrace()
		if i == 1 {
			tr = run.OverlapReal()
		}
		if err := tr.Validate(); err != nil {
			return 0, err
		}
		prog, err := sim.Compile(tr)
		if err != nil {
			return 0, err
		}
		return replayFinish(plat, prog)
	})
	if err != nil {
		return nil, err
	}
	baseFin, realFin := refs[0], refs[1]
	rep := &WhatIfReport{
		App:           run.Name,
		BaseFinishSec: baseFin,
		RealFinishSec: realFin,
	}
	names := run.BufferNames()
	rep.Buffers, err = engine.Map(ctx, eng, len(names), func(ctx context.Context, i int) (BufferPotential, error) {
		name := names[i]
		tr := run.OverlapSelective(map[string]bool{name: true})
		if err := tr.Validate(); err != nil {
			return BufferPotential{}, fmt.Errorf("core: selective trace for %q: %w", name, err)
		}
		prog, err := sim.Compile(tr)
		if err != nil {
			return BufferPotential{}, fmt.Errorf("core: compiling selective %q: %w", name, err)
		}
		fin, err := replayFinish(plat, prog)
		if err != nil {
			return BufferPotential{}, fmt.Errorf("core: replaying selective %q: %w", name, err)
		}
		return BufferPotential{
			Buffer:       name,
			FinishSec:    fin,
			Speedup:      metrics.Speedup(baseFin, fin),
			GainOverReal: metrics.Speedup(realFin, fin),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// Rank by marginal gain; ties keep the deterministic buffer-name order
	// the jobs were submitted in.
	sort.SliceStable(rep.Buffers, func(i, j int) bool {
		return rep.Buffers[i].GainOverReal > rep.Buffers[j].GainOverReal
	})
	return rep, nil
}

// WhatIfReport ranks the buffers of one application by restructuring
// potential.
type WhatIfReport struct {
	App           string
	BaseFinishSec float64
	RealFinishSec float64
	// Buffers sorted by GainOverReal, best first.
	Buffers []BufferPotential
}

// Format renders the ranking as a table.
func (r *WhatIfReport) Format() string {
	out := fmt.Sprintf("what-if (idealize one buffer at a time) for %s\n", r.App)
	out += fmt.Sprintf("non-overlapped %.6f s, overlapped(real) %.6f s\n", r.BaseFinishSec, r.RealFinishSec)
	out += fmt.Sprintf("%-20s %12s %12s %14s\n", "buffer", "finish (s)", "speedup", "gain vs real")
	for _, b := range r.Buffers {
		out += fmt.Sprintf("%-20s %12.6f %12.3f %14.3f\n", b.Buffer, b.FinishSec, b.Speedup, b.GainOverReal)
	}
	return out
}
