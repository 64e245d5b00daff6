package core

import "repro/internal/telemetry"

// Per-point stage timings of the scenario stream. Four stages cover a
// point's life: compile (trace -> sim.Program, memo hits included, so
// the histogram shows the amortization), replay (the simulation itself —
// the whole analysis for whatif/report outputs), copyout (assembling the
// wire-format point from arena-backed measurements), and emit (the
// consumer's yield — an NDJSON encoder, a table printer, a cache fill).
var (
	scenarioStage  = telemetry.Default().HistogramVec("scenario_stage_seconds", "per-point stage timings of the scenario stream", 1e-9, "stage")
	mStageCompile  = scenarioStage.With("compile")
	mStageReplay   = scenarioStage.With("replay")
	mStageCopyout  = scenarioStage.With("copyout")
	mStageEmit     = scenarioStage.With("emit")
	scenarioPoints = telemetry.Default().CounterVec("scenario_points_total", "scenario grid points emitted, by origin", "source")
	mPtsComputed   = scenarioPoints.With("computed")
	mPtsCached     = scenarioPoints.With("cached")
	mPtsFaulted    = telemetry.Default().Counter("scenario_points_faulted_total", "flavor measurements reported as fault-induced stalls (injected faults severed required ranks)")
	autoShardRuns  = telemetry.Default().CounterVec("scenario_auto_shards_total", "automatic replays the planner asked to shard, by what ran", "choice")
	mAutoSharded   = autoShardRuns.With("sharded")
	mAutoSerial    = autoShardRuns.With("serial")
)
