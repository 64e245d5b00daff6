package sim

import (
	"sync"

	"repro/internal/network"
)

// Pooled replays: the sweep paths (scenario grids, what-if studies,
// service sweeps) replay a compiled program many times and retain
// only scalars. They borrow a warm arena from a process-wide pool, so a
// saturated worker pool converges on one arena per worker and the
// steady-state replay allocates nothing.

var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// ReplaySummary replays prog on p using a pooled arena — sharded when
// shards > 1 and the platform allows it (see EffectiveShards) — and
// returns the replay's scalar summary (makespan plus the traffic split).
// It runs the same events as a full replay with the timeline and the comm
// log switched off: it records no interval and no comm, and takes the
// traffic split from the per-stream totals Compile records. Safe for
// concurrent use.
func ReplaySummary(p network.Platform, prog *Program, shards int) (Summary, error) {
	a := arenaPool.Get().(*ReplayArena)
	defer arenaPool.Put(a)
	return a.replaySummary(p, prog, shards)
}

// replaySummary is ReplaySummary on a given arena.
func (a *ReplayArena) replaySummary(p network.Platform, prog *Program, shards int) (Summary, error) {
	if err := a.replay(p, prog, shards, false); err != nil {
		return Summary{}, err
	}
	return a.summary(), nil
}

// ReplayInto replays prog on p using a pooled arena — sharded when shards
// > 1 and the platform allows it (see EffectiveShards) — and deep-copies
// the full result, timeline and comm log included, into dst, which must
// be non-nil and is returned. Reusing dst across calls makes the replay
// allocation-free once dst has grown to the program's high-water mark.
// core.Analyze replays each flavour through it into a fresh Result; grid
// points, which read no timeline, use ReplaySummary. Safe for concurrent
// use (with distinct dst).
func ReplayInto(p network.Platform, prog *Program, shards int, dst *Result) (*Result, error) {
	a := arenaPool.Get().(*ReplayArena)
	defer arenaPool.Put(a)
	res, err := a.RunProgramShards(p, prog, shards)
	if err != nil {
		return nil, err
	}
	return res.CloneInto(dst), nil
}
