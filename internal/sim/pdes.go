package sim

import (
	"sync"
	"time"

	"repro/internal/network"
)

// Conservative parallel replay (PDES) over compiled programs.
//
// The platform's hierarchy induces a natural partition of the replay
// state: ranks that share a node interact through intra-node streams and
// node-local state only, while every interaction that crosses nodes goes
// through the interconnect's shared resources (global buses, NIC ports,
// the in-flight congestion counter). RunProgramShards exploits that
// partition: nodes are grouped into shards, each shard owns its nodes'
// ranks, intra-node streams, and timeline buffers, and a coordinator owns
// everything inter-node.
//
// Execution alternates two phases over the shared static event order of
// eventBefore (sim.go):
//
//   - parallel phase: every busy shard — one holding an event that orders
//     strictly before the coordinator's queue head (the conservative
//     window) — drains those events from its local queue. The coordinator
//     drains the first busy shard itself and wakes a worker goroutine for
//     each other one, so a window with one busy shard wakes nobody. A
//     rank walk that reaches an inter-node instruction parks and emits
//     its continuation to the shard outbox.
//   - serial phase: the coordinator drains global events while its head
//     orders before every shard's local head, executing inter-node
//     transfers and any rank walks it unblocks inline. Shard queues only
//     grow during the phase, so their earliest head is found once and
//     lowered as the coordinator routes events into them.
//
// The two bounds make the schedule conservative: a shard never runs ahead
// of a global event that could wake one of its ranks, and the coordinator
// never runs ahead of a shard that could hand it new inter-node work.
// Cross-phase effects land only on parked ranks (a blocked rank has no
// queued continuation), every handler works from event-local times
// instead of a global clock, and comm records write to compile-time slots
// — which together make the sharded replay byte-identical to the serial
// one. The one model feature that breaks the partition is a *finite*
// intra-node bus pool (its calendar is order-sensitive across ranks of a
// node and a coordinator-resumed rank may commit out of local key order),
// so sharded replay requires IntraBuses == 0 — the shared-memory default
// of every built-in platform — and falls back to serial otherwise.

// shard is one owner of the sharded replay: a slice of nodes with a local
// event queue. The coordinator is a distinguished shard with id -1 that
// uses the arena's own queue.
type shard struct {
	id     int32
	q      eventQueue
	outbox []event       // events emitted during a parallel phase for other owners
	work   chan struct{} // window signal to the shard's worker; closed and cleared by stop
	// offloaded counts the events the shard's worker drained this replay:
	// work that left the coordinator. Written by the worker only, read
	// after stop.
	offloaded int64
}

// pdesState is the arena's sharded-replay machinery, reused across
// replays like every other arena buffer.
type pdesState struct {
	shards      []shard
	coord       shard
	rankShard   []int32 // rank -> owning shard
	streamShard []int32 // stream -> owning shard, -1 for inter-node (coordinator)
	wg          sync.WaitGroup
	bound       event // parallel-phase window bound (the global queue head)
	hasBound    bool
	busy        []int // shards with an event inside the current window
	lmin        event // earliest shard head during a serial phase
	hasLmin     bool

	// Phase flight record, coordinator-owned and measured at the phase
	// barriers (two clock reads per window, amortized over all shards, so
	// the recording cost is invisible next to the barrier itself). Zeroed
	// by start, harvested per replay (see stats.go).
	windows      int64 // parallel windows run (horizon advances)
	concurrent   int64 // windows with two or more busy shards
	serialPhases int64 // coordinator drains of the global stream
	parNanos     int64 // wall time inside parallel phases
	serNanos     int64 // wall time inside serial phases
}

// route delivers a freshly scheduled event to its owner's queue. Shards
// push their own events locally and emit everything else to their outbox
// (drained by the coordinator at the phase barrier); the coordinator
// pushes global events to the arena queue and shard events straight into
// the — parked — shard's queue, lowering the serial phase's earliest
// shard head.
func (sh *shard) route(a *ReplayArena, e event) {
	owner := a.eventOwner(&e)
	if sh.id >= 0 {
		if owner == sh.id {
			sh.q.push(e)
		} else {
			sh.outbox = append(sh.outbox, e)
		}
		return
	}
	if owner < 0 {
		a.evq.push(e)
		return
	}
	pd := &a.pdes
	pd.shards[owner].q.push(e)
	if !pd.hasLmin || eventBefore(&e, &pd.lmin) {
		pd.lmin, pd.hasLmin = e, true
	}
}

// eventOwner classifies an event: the shard that must execute it, or -1
// for the coordinator. Arrivals belong to their stream's owner. Rank
// continuations belong to the rank's shard unless the instruction they
// resume at crosses the interconnect. The classification is stable
// between scheduling and execution: a parked rank's pc only moves when
// its one continuation runs.
func (a *ReplayArena) eventOwner(e *event) int32 {
	pd := &a.pdes
	kind := e.kind()
	if kind == evArrive {
		return pd.streamShard[e.a()]
	}
	rank := e.a()
	pc := int(a.ranks[rank].pc)
	if kind == evSendResume {
		pc++ // the resume advances past the parked send record first
	}
	code := a.prog.code[rank]
	if pc < len(code) {
		if in := &code[pc]; in.stream >= 0 && pd.streamShard[in.stream] < 0 {
			return -1
		}
	}
	return pd.rankShard[rank]
}

// drain runs the shard's part of the current window: every local event
// ordering before the bound, and returns how many it dispatched. The
// coordinator and the shard's worker call it alike; the result does not
// depend on which goroutine runs it.
func (sh *shard) drain(a *ReplayArena) (n int64) {
	pd := &a.pdes
	for {
		e, ok := sh.q.popBefore(&pd.bound, pd.hasBound)
		if !ok {
			return n
		}
		a.dispatch(e, sh)
		n++
	}
}

// worker is a shard's goroutine: one window per signal on work, each
// acknowledged on pd.wg, and one last acknowledgement when stop closes
// work. The channel is passed in rather than read from sh, because stop
// clears sh.work and a worker may first be scheduled after that.
func (sh *shard) worker(a *ReplayArena, work <-chan struct{}) {
	pd := &a.pdes
	for range work {
		sh.offloaded += sh.drain(a)
		pd.wg.Done()
	}
	pd.wg.Done()
}

// EffectiveShards resolves a requested shard count against the platform
// and program: the count actually used by RunProgramShards. It holds
// only the safety clamps, not a policy — the automatic choice belongs to
// the scenario planner. A request of 1 or less, a platform sharding
// cannot keep byte-identical on (fewer than two nodes, or a finite
// intra-node bus pool), or a nil program resolves to 1, the serial path;
// any other request is capped at the node count.
func EffectiveShards(p network.Platform, prog *Program, requested int) int {
	if requested <= 1 || p.Nodes < 2 || p.IntraBuses != 0 || prog == nil {
		return 1
	}
	return min(requested, p.Nodes)
}

// ShardNote is what a program's first sharded replay on one partition
// recorded: the events its workers drained and the windows that woke
// one. Both depend only on (program, platform, shards), never on
// scheduling, so a scheduler can read them as what the next sharded
// replay on that partition would hand its workers.
type ShardNote struct {
	OffloadedEvents   int64
	ConcurrentWindows int64
}

// partition names the split a sharded replay runs on: the platform's
// processor and node counts, its rank→node mapping and the effective
// shard count. Links, pools and degradations stay out, so every
// bandwidth of one partition shares a note.
type partition struct {
	procs, nodes, shards int
	mapping              network.MappingKind
	explicit             uint64 // FNV-1a of an explicit mapping's node list, else 0
}

func partitionOf(p network.Platform, shards int) partition {
	k := partition{procs: p.Processors, nodes: p.Nodes, shards: shards, mapping: p.Mapping.Kind}
	if k.mapping == network.MapExplicit {
		k.explicit = 14695981039346656037
		for _, n := range p.Mapping.Explicit {
			k.explicit = (k.explicit ^ uint64(n)) * 1099511628211
		}
	}
	return k
}

// shardNote is one entry of Program.notes.
type shardNote struct {
	key  partition
	note ShardNote
}

// ShardNote returns what the first sharded replay of prog on p's
// partition at the given effective shard count (see EffectiveShards)
// recorded, and whether one has completed. It never allocates and is
// safe for concurrent use with replays.
func (prog *Program) ShardNote(p network.Platform, shards int) (ShardNote, bool) {
	k := partitionOf(p, shards)
	prog.notesMu.Lock()
	defer prog.notesMu.Unlock()
	if i := prog.noteIndex(k); i >= 0 {
		return prog.notes[i].note, true
	}
	return ShardNote{}, false
}

// recordNote keeps st's counts as the note of partition k unless the
// partition has one, so only its first sharded replay appends.
func (prog *Program) recordNote(k partition, st *ReplayStats) {
	prog.notesMu.Lock()
	defer prog.notesMu.Unlock()
	if prog.noteIndex(k) < 0 {
		prog.notes = append(prog.notes, shardNote{k, ShardNote{OffloadedEvents: st.OffloadedEvents, ConcurrentWindows: st.ConcurrentWindows}})
	}
}

// noteIndex is the index of partition k's note, or -1. The caller holds
// notesMu.
func (prog *Program) noteIndex(k partition) int {
	for i := range prog.notes {
		if prog.notes[i].key == k {
			return i
		}
	}
	return -1
}

// RunProgramShards replays a compiled program on p across the given
// number of shards. The result is byte-identical to RunProgram: shards
// only change how the event order is executed, never the order itself.
// A request the platform cannot shard safely, or one of 1 or less,
// replays serially (see EffectiveShards).
func (a *ReplayArena) RunProgramShards(p network.Platform, prog *Program, shards int) (*Result, error) {
	if err := a.replay(p, prog, shards, true); err != nil {
		return nil, err
	}
	return a.assemble(), nil
}

// replayShards is the sharded analogue of replaySerial: same reset, same
// events, same handlers — executed by n shard workers plus the
// coordinator under the two conservative bounds.
func (a *ReplayArena) replayShards(n int) {
	pd := &a.pdes
	pd.start(a, n)
	defer pd.stop()
	a.stats.Shards = n

	for r := 0; r < a.prog.numRanks; r++ {
		pd.coord.route(a, mkEvent(0, evAdvance, int32(r), 0))
	}
	// Phase clock: one running mark on the replay's monotonic clock,
	// advanced at each phase end, so a phase costs a single clock read.
	// The inter-phase scheduling scan is attributed to the phase it
	// decides — a deliberate approximation that keeps the recording
	// invisible next to the phase barrier.
	mark := time.Since(a.replayStart).Nanoseconds()
	for {
		// One peek per shard decides the phase: the busy shards hold an
		// event inside the window; when there are none, the earliest
		// shard head bounds the serial phase.
		head, hasHead := a.evq.peek()
		pd.busy = pd.busy[:0]
		pd.hasLmin = false
		for i := range pd.shards {
			lh, ok := pd.shards[i].q.peek()
			switch {
			case !ok:
			case !hasHead || eventBefore(&lh, &head):
				pd.busy = append(pd.busy, i)
			case !pd.hasLmin || eventBefore(&lh, &pd.lmin):
				pd.lmin, pd.hasLmin = lh, true
			}
		}
		if len(pd.busy) > 0 {
			pd.window(a, head, hasHead)
			now := time.Since(a.replayStart).Nanoseconds()
			pd.parNanos += now - mark
			mark = now
			continue
		}
		if a.evq.len() == 0 {
			break // no shard work, no global work: the replay is done
		}
		// Serial phase: drain global events while the coordinator's head
		// orders before every local head. Processing may push local
		// events (waking a shard's rank), which lowers lmin and hands
		// control back to the parallel phase.
		pd.serialPhases++
		for {
			e, ok := a.evq.popBefore(&pd.lmin, pd.hasLmin)
			if !ok {
				break
			}
			a.dispatch(e, &pd.coord)
		}
		now := time.Since(a.replayStart).Nanoseconds()
		pd.serNanos += now - mark
		mark = now
	}
}

// window runs one parallel phase over the busy shards: workers drain all
// but the first, which the coordinator drains itself, and after the
// barrier the coordinator routes every outbox.
func (pd *pdesState) window(a *ReplayArena, head event, hasHead bool) {
	pd.bound, pd.hasBound = head, hasHead
	others := pd.busy[1:]
	if len(others) > 0 {
		pd.concurrent++
		pd.wg.Add(len(others))
		for _, i := range others {
			pd.shards[i].work <- struct{}{}
		}
	}
	pd.shards[pd.busy[0]].drain(a)
	pd.wg.Wait()
	for _, i := range pd.busy {
		sh := &pd.shards[i]
		for _, e := range sh.outbox {
			pd.coord.route(a, e)
		}
		sh.outbox = sh.outbox[:0]
	}
	pd.windows++
}

// start prepares the shard partition for one replay and launches the
// workers. Nodes split into n contiguous blocks; every rank, intra-node
// stream, and node-local pool follows its node's shard. Shard 0 gets no
// worker: when it is busy it is the first busy shard, which the
// coordinator drains itself.
func (pd *pdesState) start(a *ReplayArena, n int) {
	prog := a.prog
	pd.rankShard = grow(pd.rankShard, prog.numRanks)
	for r := 0; r < prog.numRanks; r++ {
		pd.rankShard[r] = int32(a.nodeOf[r] * n / a.poolNodes)
	}
	pd.streamShard = grow(pd.streamShard, len(prog.streams))
	for i := range prog.streams {
		si := &prog.streams[i]
		if a.nodeOf[si.src] == a.nodeOf[si.dst] {
			pd.streamShard[i] = pd.rankShard[si.src]
		} else {
			pd.streamShard[i] = -1
		}
	}
	if len(pd.shards) != n {
		pd.shards = make([]shard, n)
		for i := range pd.shards {
			pd.shards[i].id = int32(i)
		}
	}
	pd.coord.id = -1
	pd.windows, pd.concurrent, pd.serialPhases = 0, 0, 0
	pd.parNanos, pd.serNanos = 0, 0
	for i := range pd.shards {
		sh := &pd.shards[i]
		sh.q.reset()
		sh.outbox = sh.outbox[:0]
		sh.offloaded = 0
		if i > 0 {
			sh.work = make(chan struct{})
			go sh.worker(a, sh.work)
		}
	}
}

// stop shuts the shard workers down after a replay and returns once
// every one of them has exited.
func (pd *pdesState) stop() {
	pd.wg.Add(len(pd.shards) - 1)
	for i := 1; i < len(pd.shards); i++ {
		close(pd.shards[i].work)
		pd.shards[i].work = nil
	}
	pd.wg.Wait()
}
