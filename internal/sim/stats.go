package sim

import (
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// Replay flight recording. Every replay aggregates a ReplayStats into
// its arena — plain single-owner counters bumped where the work happens
// (the event queue counts its own pops, each PDES shard its own queue,
// the coordinator the phase clock) — and finishReplay harvests the
// totals into the process-wide telemetry registry with a handful of
// atomic adds. The warm serial path stays 0 allocs/op with the
// recording enabled (pinned by TestReplayAllocs*).

// ReplayStats is the flight record of one replay.
type ReplayStats struct {
	// Events is the number of events dispatched, across all owners.
	Events int64
	// CursorJumps counts calendar-queue gap jumps (a full bucket cycle
	// without a hit; the cursor warped to the next populated year).
	CursorJumps int64
	// Rebuilds counts calendar-queue redistributions.
	Rebuilds int64
	// ReplayNanos is the replay's wall time, reset to finish.
	ReplayNanos int64

	// Shards is the effective shard count: 1 for a serial replay.
	Shards int
	// Windows counts conservative parallel windows (each one horizon
	// advance: shards drained everything below the global queue head).
	Windows int64
	// ConcurrentWindows counts the windows in which two or more shards
	// had events: the only windows that wake a worker goroutine and can
	// use a second core.
	ConcurrentWindows int64
	// OffloadedEvents counts the events drained by worker goroutines: in
	// each window, those of every busy shard except the one the
	// coordinator drains itself. Over Events it is the replay's parallel
	// fraction. Like the other counts it depends only on (program,
	// platform, shards), never on scheduling.
	OffloadedEvents int64
	// SerialPhases counts coordinator drains of the global stream.
	SerialPhases int64
	// ParallelNanos / SerialNanos split the sharded replay's wall time
	// into its two phases, measured at the coordinator.
	ParallelNanos int64
	SerialNanos   int64
	// ShardEvents is the per-shard event count. It aliases arena memory
	// and is valid only until the arena's next replay; nil when serial.
	ShardEvents []int64
}

// LastStats returns the stats of the arena's most recent completed
// replay. ShardEvents aliases arena memory (see ReplayStats).
func (a *ReplayArena) LastStats() ReplayStats { return a.stats }

// Process-wide replay instruments (see internal/telemetry). Durations
// accumulate in nanoseconds and expose in seconds.
var (
	mReplays       = telemetry.Default().Counter("sim_replays_total", "completed trace replays")
	mReplayEvents  = telemetry.Default().Counter("sim_replay_events_total", "events dispatched by the replay event loop, all owners")
	mReplaySeconds = telemetry.Default().Histogram("sim_replay_seconds", "wall time of one replay, reset to finish", 1e-9)
	mCalJumps      = telemetry.Default().Counter("sim_calqueue_cursor_jumps_total", "calendar-queue gap jumps (full bucket cycle without a hit)")
	mCalRebuilds   = telemetry.Default().Counter("sim_calqueue_rebuilds_total", "calendar-queue redistributions")
	mFaultDropped  = telemetry.Default().Counter("sim_fault_dropped_transfers_total", "transfers suppressed by injected hard faults (downed NICs/links)")

	mPDESReplays       = telemetry.Default().Counter("sim_pdes_replays_total", "replays executed on the sharded (PDES) path")
	mPDESWindows       = telemetry.Default().Counter("sim_pdes_windows_total", "conservative parallel windows (horizon advances)")
	mPDESConcurrent    = telemetry.Default().Counter("sim_pdes_concurrent_windows_total", "conservative windows in which two or more shards had events")
	mPDESOffloaded     = telemetry.Default().Counter("sim_pdes_offloaded_events_total", "events drained by PDES worker goroutines rather than the coordinator")
	mPDESSerialPhases  = telemetry.Default().Counter("sim_pdes_serial_phases_total", "coordinator drains of the global event stream")
	mPDESParallelSecs  = telemetry.Default().CounterScale("sim_pdes_parallel_seconds_total", "wall time spent in PDES parallel phases", 1e-9)
	mPDESSerialSecs    = telemetry.Default().CounterScale("sim_pdes_serial_seconds_total", "wall time spent in PDES serial (coordinator) phases", 1e-9)
	mPDESShardEvents   = telemetry.Default().CounterVec("sim_pdes_shard_events_total", "events executed by each PDES shard", "shard")
	shardLabelsPrecomp = func() (ls [64]string) {
		for i := range ls {
			ls[i] = strconv.Itoa(i)
		}
		return
	}()
)

// shardLabel returns the label value for shard i without allocating for
// realistic shard counts.
func shardLabel(i int) string {
	if i < len(shardLabelsPrecomp) {
		return shardLabelsPrecomp[i]
	}
	return strconv.Itoa(i)
}

// harvestStats folds the replay's single-owner counters into the
// arena's ReplayStats and flushes the totals to telemetry. Called once
// per completed replay from finishReplay; costs a few atomic adds and
// never allocates on the serial path.
func (a *ReplayArena) harvestStats() {
	st := &a.stats
	st.ReplayNanos = time.Since(a.replayStart).Nanoseconds()
	st.Events = a.evq.popped
	st.CursorJumps = a.evq.jumps
	st.Rebuilds = a.evq.rebuilds
	if st.Shards > 1 {
		pd := &a.pdes
		st.Windows = pd.windows
		st.ConcurrentWindows = pd.concurrent
		st.SerialPhases = pd.serialPhases
		st.ParallelNanos = pd.parNanos
		st.SerialNanos = pd.serNanos
		a.shardEventsBuf = grow(a.shardEventsBuf, len(pd.shards))
		for i := range pd.shards {
			sh := &pd.shards[i]
			a.shardEventsBuf[i] = sh.q.popped
			st.OffloadedEvents += sh.offloaded
			st.Events += sh.q.popped
			st.CursorJumps += sh.q.jumps
			st.Rebuilds += sh.q.rebuilds
		}
		st.ShardEvents = a.shardEventsBuf
	}

	mReplays.Inc()
	if a.fxDropped > 0 {
		mFaultDropped.AddInt(a.fxDropped)
	}
	mReplayEvents.AddInt(st.Events)
	mReplaySeconds.Observe(st.ReplayNanos)
	mCalJumps.AddInt(st.CursorJumps)
	mCalRebuilds.AddInt(st.Rebuilds)
	if st.Shards > 1 {
		mPDESReplays.Inc()
		mPDESWindows.AddInt(st.Windows)
		mPDESConcurrent.AddInt(st.ConcurrentWindows)
		mPDESOffloaded.AddInt(st.OffloadedEvents)
		mPDESSerialPhases.AddInt(st.SerialPhases)
		mPDESParallelSecs.AddInt(st.ParallelNanos)
		mPDESSerialSecs.AddInt(st.SerialNanos)
		for i, ev := range st.ShardEvents {
			mPDESShardEvents.With(shardLabel(i)).AddInt(ev)
		}
	}
}
