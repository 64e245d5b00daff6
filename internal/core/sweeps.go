package core

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/tracer"
)

// The chunk-count ablation built on the pipeline. It is embarrassingly
// parallel — every point is a pure function of the traced run and its
// chunk count — so it submits its points to the experiment engine: the
// application is traced once, the per-point trace rebuilds and replays fan
// out across the worker pool, and results come back in input order,
// byte-identical to the serial reference path.

// ChunkPoint is one measurement of the chunk-count ablation.
type ChunkPoint struct {
	Chunks                    int
	SpeedupReal, SpeedupIdeal float64
}

// ChunkSweep measures overlap speedups across chunk counts. The paper
// fixes 4 chunks; the sweep quantifies that design choice. It is a thin
// wrapper over a scenario spec — a chunks axis measuring all three flavors
// on eng (nil selects the default engine) — so the application is traced
// once, each chunk count rebuilds the overlapped traces from a
// copy-on-write variant of the shared run, the chunk-independent base
// flavor compiles once, and every replay runs on a pooled arena.
func ChunkSweep(ctx context.Context, eng *engine.Engine, app App, ranks int, plat network.Platform, tCfg tracer.Config, counts []int) ([]ChunkPoint, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	for _, k := range counts {
		if k <= 0 {
			return nil, fmt.Errorf("core: chunk count %d", k)
		}
	}
	res, err := RunScenario(ctx, eng, Scenario{
		App: app, Ranks: ranks, Tracer: tCfg, Platform: plat,
		Flavors: []Flavor{FlavorBase, FlavorReal, FlavorIdeal},
		Axes:    []Axis{ChunksAxis(counts...)},
		Output:  OutputFinish,
	})
	if err != nil {
		return nil, err
	}
	out := make([]ChunkPoint, len(res.Points))
	for i, pt := range res.Points {
		base, real, ideal := pt.Flavors[0].FinishSec, pt.Flavors[1].FinishSec, pt.Flavors[2].FinishSec
		out[i] = ChunkPoint{
			Chunks:       counts[i],
			SpeedupReal:  metrics.Speedup(base, real),
			SpeedupIdeal: metrics.Speedup(base, ideal),
		}
	}
	return out, nil
}

// ChunkSweepSerial is the serial reference implementation of ChunkSweep:
// one goroutine, the original loop. It exists so determinism tests and
// BenchmarkEngineParallelSweep can assert the engine path returns
// byte-identical results while measuring its speedup.
func ChunkSweepSerial(app App, ranks int, plat network.Platform, tCfg tracer.Config, counts []int) ([]ChunkPoint, error) {
	run, baseFinish, err := chunkSweepPrelude(app, ranks, plat, tCfg, counts)
	if err != nil {
		return nil, err
	}
	out := make([]ChunkPoint, 0, len(counts))
	for _, k := range counts {
		pt, err := chunkPoint(run, k, plat, baseFinish)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// chunkSweepPrelude is the serial sweep's setup: validate inputs, trace
// the application once, and replay the non-overlapped baseline.
func chunkSweepPrelude(app App, ranks int, plat network.Platform, tCfg tracer.Config, counts []int) (*tracer.Run, float64, error) {
	if err := plat.Validate(); err != nil {
		return nil, 0, err
	}
	for _, k := range counts {
		if k <= 0 {
			return nil, 0, fmt.Errorf("core: chunk count %d", k)
		}
	}
	run, err := tracer.Trace(app.Name, ranks, tCfg, app.Kernel)
	if err != nil {
		return nil, 0, err
	}
	base := run.BaseTrace()
	if err := base.Validate(); err != nil {
		return nil, 0, err
	}
	baseRes, err := sim.Run(plat, base)
	if err != nil {
		return nil, 0, err
	}
	return run, baseRes.FinishSec, nil
}

// chunkPoint rebuilds the overlapped traces under a different chunking of
// the same event log and replays them. The copy-on-write variant keeps
// concurrent points from sharing a mutable Run header (the old
// `kRun := *run` shallow copy aliased the log slices).
func chunkPoint(run *tracer.Run, k int, plat network.Platform, baseFinish float64) (ChunkPoint, error) {
	kRun := run.WithChunks(k)
	real := kRun.OverlapReal()
	ideal := kRun.OverlapIdeal()
	if err := real.Validate(); err != nil {
		return ChunkPoint{}, fmt.Errorf("core: chunks=%d real: %w", k, err)
	}
	if err := ideal.Validate(); err != nil {
		return ChunkPoint{}, fmt.Errorf("core: chunks=%d ideal: %w", k, err)
	}
	realRes, err := sim.Run(plat, real)
	if err != nil {
		return ChunkPoint{}, err
	}
	idealRes, err := sim.Run(plat, ideal)
	if err != nil {
		return ChunkPoint{}, err
	}
	return ChunkPoint{
		Chunks:       k,
		SpeedupReal:  metrics.Speedup(baseFinish, realRes.FinishSec),
		SpeedupIdeal: metrics.Speedup(baseFinish, idealRes.FinishSec),
	}, nil
}
