package sim

import (
	"sync"

	"repro/internal/network"
)

// Pooled replays: the sweep and search paths (bandwidth searches, what-if
// studies, service sweeps) replay a compiled program many times and retain
// only scalars. They borrow a warm arena from a process-wide pool, so a
// saturated worker pool converges on one arena per worker and the
// steady-state replay allocates nothing.

var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// ReplaySummary replays prog on p using a pooled arena — sharded when
// shards != 1 and the platform allows it (see EffectiveShards) — and
// returns the replay's scalar summary (makespan plus the traffic split).
// Safe for concurrent use.
func ReplaySummary(p network.Platform, prog *Program, shards int) (Summary, error) {
	a := arenaPool.Get().(*ReplayArena)
	defer arenaPool.Put(a)
	res, err := a.RunProgramShards(p, prog, shards)
	if err != nil {
		return Summary{}, err
	}
	return summarize(res), nil
}

// ReplayInto replays prog on p using a pooled arena — sharded when shards
// != 1 and the platform allows it (see EffectiveShards) — and deep-copies
// the result into dst, which must be non-nil and is returned. Reusing dst
// across calls makes the full-result replay allocation-free once dst has
// grown to the program's high-water mark; this is what the engine's batch
// replays use instead of a fresh arena per point. Safe for concurrent use
// (with distinct dst).
func ReplayInto(p network.Platform, prog *Program, shards int, dst *Result) (*Result, error) {
	a := arenaPool.Get().(*ReplayArena)
	defer arenaPool.Put(a)
	res, err := a.RunProgramShards(p, prog, shards)
	if err != nil {
		return nil, err
	}
	return res.CloneInto(dst), nil
}
