// Package sim implements the Dimemas-equivalent trace-driven simulator: an
// offline discrete-event engine that replays per-rank trace records on a
// configurable parallel platform (see package network) and reconstructs the
// application's time behaviour.
//
// The engine honours the model described in the paper: compute bursts are
// instruction counts scaled by a MIPS rate; point-to-point transfers cost
// latency + size/bandwidth; a finite pool of global buses bounds the number
// of concurrently flying messages; and per-node input/output ports bound
// each node's injection and drain concurrency. Matching follows MPI
// non-overtaking order: the n-th send of a (source, tag, chunk) stream pairs
// with the n-th receive posted for that stream.
//
// The platform may be hierarchical (network.Platform): ranks are placed on
// nodes by a mapping, transfers between ranks sharing a node cross the
// intra-node link class (shared memory, per-node bus pool), and transfers
// between nodes cross the inter-node link class (NIC ports, global buses).
// The paper's flat platform is the one-rank-per-node case (network.Testbed
// and the flat presets): every transfer crosses the inter-node link, and
// the replay reproduces the original single-link model exactly.
//
// Replay is structured for throughput: a trace compiles once into a
// Program (dense instructions, stream IDs and handle tables resolved ahead
// of time — see program.go) and executes on a ReplayArena, which owns every
// piece of mutable replay state and reuses it across replays. The event
// queue is a calendar queue of small typed events (see calqueue.go), all
// matching state is slice-backed, and the steady-state replay of a warm
// arena performs no heap allocation. The arena takes the platform's cost
// model (network.Costs) once per replay, so the per-record path reads
// arena fields and never copies the Platform; each bus or port unit keeps
// its latest reservation end inline, so probing an idle unit is O(1).
//
// The entry point decides what a replay records. A full replay (Run,
// RunProgram, RunProgramShards, ReplayInto) records every rank's interval
// timeline and every transfer's comm record. A summary replay
// (ReplaySummary), which every scenario grid point uses, runs the same
// events with both switched off and keeps the makespan plus a traffic
// split summed from the per-stream totals Compile records.
//
// Events execute in a static total order — (time, event class, ids), see
// eventBefore — with no insertion sequence numbers, so any scheduler that
// respects the order reproduces the replay bit-for-bit. That is the
// foundation of the conservative parallel replay in pdes.go, which
// partitions ranks over node shards and advances them concurrently inside
// conservative windows of that same order.
package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/trace"
)

// State labels what a rank is doing during a timeline interval.
type State uint8

// Timeline states, the vocabulary of the Paraver-style views.
const (
	// StateCompute: the rank is executing a CPU burst.
	StateCompute State = iota
	// StateSendBlocked: the rank is blocked in a blocking send (resource
	// queuing, rendezvous handshake, injection).
	StateSendBlocked
	// StateWaitRecv: the rank is blocked in Recv, Wait, or WaitAll.
	StateWaitRecv
)

// String returns a short state mnemonic.
func (s State) String() string {
	switch s {
	case StateCompute:
		return "compute"
	case StateSendBlocked:
		return "send"
	case StateWaitRecv:
		return "wait"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Interval is one timeline segment of one rank.
type Interval struct {
	Rank       int
	Start, End float64
	State      State
}

// Comm describes one simulated point-to-point transfer.
type Comm struct {
	Src, Dst   int
	Tag, Chunk int
	Bytes      int64
	MsgID      int64
	// Intra reports whether both endpoints share a node, i.e. the
	// transfer crossed the platform's intra-node link class instead of
	// the interconnect. Always false on a flat (one-rank-per-node)
	// platform.
	Intra bool
	// SendT is the virtual time the send record executed on the source.
	SendT float64
	// StartT is when the transfer acquired its resources and left the
	// sender (>= SendT under contention or rendezvous).
	StartT float64
	// ArriveT is when the last byte reached the destination.
	ArriveT float64
	// MatchT is when the receiver's matching receive completed.
	MatchT float64
}

// RankStats aggregates per-rank time accounting.
type RankStats struct {
	ComputeSec     float64
	SendBlockedSec float64
	WaitSec        float64
	FinishSec      float64
	BytesSent      int64
	MsgsSent       int
}

// Result is the full output of one replay.
//
// Results returned by Run, and copied out by ReplayInto, are owned by the
// caller. Results returned by a ReplayArena's methods alias the arena's
// reusable buffers and are only valid until the arena's next replay.
type Result struct {
	// FinishSec is the simulated makespan: the max rank finish time.
	FinishSec float64
	// Ranks holds per-rank accounting, indexed by rank.
	Ranks []RankStats
	// Intervals is the state timeline of every rank, sorted by rank then
	// start time.
	Intervals []Interval
	// Comms lists every simulated transfer, grouped by stream (one
	// (src,dst,tag,chunk) flow) in the program's stream order and by
	// send sequence within a stream. Each send owns its slot at compile
	// time, which is what lets serial and sharded replays fill the slice
	// in different orders yet produce identical bytes.
	Comms []Comm
}

// CloneInto deep-copies r into dst, reusing dst's slice capacity, and
// returns dst. This is the arena-aware copy-out: replay on a pooled
// arena, CloneInto a caller-owned Result, and the steady state allocates
// nothing beyond dst's first growth to the program's high-water mark.
func (r *Result) CloneInto(dst *Result) *Result {
	dst.FinishSec = r.FinishSec
	dst.Ranks = append(dst.Ranks[:0], r.Ranks...)
	dst.Intervals = append(dst.Intervals[:0], r.Intervals...)
	dst.Comms = append(dst.Comms[:0], r.Comms...)
	return dst
}

// TotalWaitSec sums receive-wait time over all ranks.
func (r *Result) TotalWaitSec() float64 {
	var s float64
	for i := range r.Ranks {
		s += r.Ranks[i].WaitSec
	}
	return s
}

// TotalComputeSec sums compute time over all ranks.
func (r *Result) TotalComputeSec() float64 {
	var s float64
	for i := range r.Ranks {
		s += r.Ranks[i].ComputeSec
	}
	return s
}

// TrafficSplit partitions the replay's traffic by link class: bytes and
// message counts that stayed inside a node versus those that crossed the
// interconnect. On a flat platform everything is inter-node.
func (r *Result) TrafficSplit() (intraBytes, interBytes int64, intraMsgs, interMsgs int) {
	for i := range r.Comms {
		if r.Comms[i].Intra {
			intraBytes += r.Comms[i].Bytes
			intraMsgs++
		} else {
			interBytes += r.Comms[i].Bytes
			interMsgs++
		}
	}
	return intraBytes, interBytes, intraMsgs, interMsgs
}

// Summary is the scalar digest of one replay — everything the sweep,
// what-if and report paths retain, cheap to copy and safe to keep after
// the arena that produced it is reused.
type Summary struct {
	FinishSec float64
	// TotalWaitSec and TotalComputeSec sum the per-rank accounting in
	// rank order, as Result.TotalWaitSec and TotalComputeSec do.
	TotalWaitSec    float64
	TotalComputeSec float64
	IntraBytes      int64
	InterBytes      int64
	IntraMsgs       int
	InterMsgs       int
}

// DeadlockError reports a replay that stalled before all ranks finished.
type DeadlockError struct {
	Trace   string
	Blocked []string
	// Dropped counts transfers suppressed by injected hard faults (downed
	// NICs or inter-node links, see faults.Spec) during this replay.
	// Nonzero distinguishes a fault-induced stall — ranks waiting on
	// messages that can never arrive — from a genuine trace deadlock: the
	// degradation studies report the former as a per-point outcome while
	// the latter stays a hard error.
	Dropped int64
}

func (e *DeadlockError) Error() string {
	if e.Dropped > 0 {
		return fmt.Sprintf("sim: deadlock replaying %q: %v (%d transfers lost to injected NIC/link faults)", e.Trace, e.Blocked, e.Dropped)
	}
	return fmt.Sprintf("sim: deadlock replaying %q: %v", e.Trace, e.Blocked)
}

// FaultInduced reports whether the stall was caused by injected hard
// faults rather than the trace's own communication structure.
func (e *DeadlockError) FaultInduced() bool { return e.Dropped > 0 }

// ErrNilTrace reports a replay requested without a trace.
var ErrNilTrace = errors.New("sim: nil trace")

// ---------------------------------------------------------------------------
// Event queue
//
// Events are small typed records — no closures — ordered by the static key
// (time, class, a, b). The key depends only on the event's content, never on
// insertion order: at most one rank continuation (evAdvance/evSendResume)
// exists per rank at any moment, and an arrival is unique per (stream, send
// seq), so the key is a total order. Any scheduler that respects it — the
// serial loop or the sharded PDES loop in pdes.go — pops the same sequence,
// which is what keeps parallel replay byte-identical to serial.

// Event kinds.
const (
	// evAdvance resumes rank a's record stream at the event time.
	evAdvance uint8 = iota
	// evArrive completes the flight of send seq b of stream a.
	evArrive
	// evSendResume unparks rank a from a blocking rendezvous send:
	// advance past the send record.
	evSendResume
)

type event struct {
	t    float64
	year int64 // calendar-queue placement year, owned by eventQueue.push
	a, b int32
	kind uint8
}

// eventBefore is the static total order: time, then rank continuations
// before arrivals, then the id pair. Same-time continuations of distinct
// ranks order by rank; same-time arrivals by (stream, seq).
func eventBefore(x, y *event) bool {
	if x.t != y.t {
		return x.t < y.t
	}
	xa, ya := x.kind == evArrive, y.kind == evArrive
	if xa != ya {
		return ya
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// ---------------------------------------------------------------------------
// Simulated-time resources

// resource models a pool of identical units (buses, ports) reserved for
// simulated-time spans. A nil resource is unlimited.
//
// Each unit keeps a calendar of busy intervals so that a reservation made
// for the future (a chunk burst serialized behind a port) does not render
// the unit's earlier idle time unusable: later requests may backfill gaps,
// which is what the physical resource would allow.
type resource struct {
	units []unitCalendar
}

type busyInterval struct {
	start, end float64
}

type unitCalendar struct {
	busy []busyInterval // sorted by start, non-overlapping
	// end is the latest end of any busy interval (0 when there is none).
	// It is a max, not the end of the last-started interval, so it stays
	// exact when a reservation is committed before earlier-starting ones,
	// as a coordinator-resumed rank does during sharded replay.
	end float64
}

// earliestFit returns the earliest start >= t at which the unit can host a
// reservation of the given duration.
func (u *unitCalendar) earliestFit(t, hold float64) float64 {
	if t >= u.end {
		return t // idle from t on: no busy interval ends after t
	}
	// Binary search for the first busy interval ending after t.
	lo, hi := 0, len(u.busy)
	for lo < hi {
		mid := (lo + hi) / 2
		if u.busy[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := t
	for i := lo; i < len(u.busy); i++ {
		if u.busy[i].start-start >= hold {
			return start
		}
		if u.busy[i].end > start {
			start = u.busy[i].end
		}
	}
	return start
}

// earliestFit returns the unit index and earliest start >= t across the
// pool.
func (r *resource) earliestFit(t, hold float64) (int, float64) {
	best, bt := 0, r.units[0].earliestFit(t, hold)
	for i := 1; i < len(r.units); i++ {
		if s := r.units[i].earliestFit(t, hold); s < bt {
			best, bt = i, s
		}
		if bt == t {
			break // cannot start earlier than asked
		}
	}
	return best, bt
}

// commit reserves unit i for [start, start+hold). Zero-length holds are
// no-ops.
func (r *resource) commit(i int, start, hold float64) {
	if hold <= 0 {
		return
	}
	u := &r.units[i]
	iv := busyInterval{start: start, end: start + hold}
	// Insert keeping the calendar sorted; requests mostly arrive in
	// increasing time, so scanning from the back is near O(1).
	pos := len(u.busy)
	for pos > 0 && u.busy[pos-1].start > iv.start {
		pos--
	}
	u.busy = append(u.busy, busyInterval{})
	copy(u.busy[pos+1:], u.busy[pos:])
	u.busy[pos] = iv
	if iv.end > u.end {
		u.end = iv.end
	}
}

// reset truncates every unit's calendar, keeping capacity.
func (r *resource) reset() {
	for i := range r.units {
		r.units[i] = unitCalendar{busy: r.units[i].busy[:0]}
	}
}

// ptr returns the pool as the nullable handle the replay loop uses: nil
// means unlimited.
func (r *resource) ptr() *resource {
	if len(r.units) == 0 {
		return nil
	}
	return r
}

// ---------------------------------------------------------------------------
// Message matching

type postKind uint8

const (
	postBlocking postKind = iota
	postNonBlocking
)

type post struct {
	kind   postKind
	handle int32
	t      float64
}

// streamState is the per-stream non-overtaking match state. The n-th send
// of the stream pairs with the n-th post; a pair completes as soon as both
// its message has arrived and its receive is posted, independently of
// other pairs. All slices are exact-capacity views into the arena's
// backing arrays.
type streamState struct {
	arrivals []float64 // arrival time per send seq; NaN while in flight
	matched  []bool    // per send seq
	posts    []post    // grows to the stream's post count
	nSends   int32
	// Rendezvous senders wait for their matching post in FIFO order:
	// stream seqs are strictly increasing and posts arrive in order, so
	// the map of the old engine reduces to a queue with a head cursor.
	pendQ    []pendingTransfer
	pendHead int32
}

type pendingTransfer struct {
	seq      int32
	commIdx  int32
	bytes    int64
	readyT   float64 // sender reached the record at this time
	blocking bool
}

// ---------------------------------------------------------------------------
// Rank state machine

type blockReason uint8

const (
	blockNone blockReason = iota
	blockRecv
	blockWait
	blockWaitAll
	blockSendRendezvous
)

type rankState struct {
	rank       int32
	pc         int32
	blocked    blockReason
	done       bool
	waitHandle int32
	clock      float64
	blockStart float64
	stats      RankStats
	// Outstanding IRecv handles, densely indexed by the program's
	// per-rank handle IDs. hTime is the completion time (NaN while
	// incomplete), hArr the completing pair's arrival time (what decides
	// whether a completion is already visible to a walk at a given clock
	// — see the run-ahead notes in advance), hActive whether the handle
	// is posted and unwaited.
	hTime   []float64
	hArr    []float64
	hActive []bool
	// active lists posted handle IDs for WaitAll's bulk clear; entries
	// deactivated by a single Wait go stale and are skipped.
	active     []int32
	incomplete int32
}

// ---------------------------------------------------------------------------
// ReplayArena

// ReplayArena owns every piece of mutable replay state — event heap,
// match buffers, rank states, resource calendars, interval and comm
// accumulators — and reuses it across replays, so a sweep's 16th replay of
// a compiled program allocates nothing. An arena is single-goroutine;
// share Programs, not arenas. Results returned by arena methods alias the
// arena's buffers and are valid only until its next replay.
type ReplayArena struct {
	prog   *Program
	nodeOf []int
	// cost is the platform's cost model, taken once by reset so the
	// per-record path reads arena fields instead of copying the Platform.
	cost network.Costs
	// timeline selects a full replay, which records the interval timeline
	// and the comm log; a summary replay (ReplaySummary) runs the same
	// events with both off.
	timeline bool

	// Event queue (calendar queue, see calqueue.go) and clock.
	evq      eventQueue
	now      float64
	inFlight int // inter-node messages currently in the interconnect

	// Sharded replay state (pdes.go); empty until RunProgramShards.
	pdes pdesState

	// Resource pools, rebuilt only when the platform shape changes.
	poolNodes                             int
	poolBuses, poolIntra, poolIn, poolOut int
	interRes                              resource
	intraRes, inRes, outRes               []resource
	interBuses                            *resource
	intraBuses, nodeIn, nodeOut           []*resource

	// Per-rank and per-stream state plus their backing arrays.
	ranks       []rankState
	streams     []streamState
	arrivalsBuf []float64
	matchedBuf  []bool
	postsBuf    []post
	pendBuf     []pendingTransfer
	hTimeBuf    []float64
	hArrBuf     []float64
	hActiveBuf  []bool
	activeBuf   []int32

	// Output accumulators, filled only by full replays. Intervals gather
	// per rank — each rank's timeline is appended in strictly increasing
	// start order — and merge by concatenation, which is exactly the
	// (rank, start) order the old engine obtained from a final closure
	// sort.
	rankIvs   [][]Interval
	intervals []Interval
	comms     []Comm
	rankStats []RankStats
	result    Result

	// Flight record of the current/last replay (see stats.go).
	stats          ReplayStats
	replayStart    time.Time
	shardEventsBuf []int64

	// Fault-injection state, resolved from plat.Degradations by reset.
	// The guard flags keep the healthy path byte-identical and cheap:
	// with a zero-valued spec no fault arithmetic touches a time. All
	// fields are read-only during a replay (PDES shards share them), and
	// fxDropped is only mutated by inter-node launches, which execute on
	// the coordinator alone.
	fxOn       bool // any degradation active
	fxHard     bool // any downed NIC or inter-node link
	fxStrag    bool // any straggler rank
	fxDerIntra float64
	fxDerInter float64
	fxJitter   float64
	fxSeed     uint64
	fxStragMul []float64    // per-rank compute multiplier (1 = healthy)
	fxNICDown  []bool       // per-node downed NIC
	fxPairs    []uint64     // downed node pairs, packed lo<<32|hi, sorted; shared, read-only (lastPairs)
	fxPickBuf  []int32      // reusable buffer for seeded rank draws
	fxDraws    faults.Draws // dedupe scratch of the seeded draws
	fxDropped  int64        // transfers suppressed this replay
}

// NewArena returns an empty arena. Buffers grow to the working set of the
// first replays and are reused afterwards.
func NewArena() *ReplayArena { return &ReplayArena{} }

// RunProgram replays a compiled program on platform p.
func (a *ReplayArena) RunProgram(p network.Platform, prog *Program) (*Result, error) {
	return a.RunProgramShards(p, prog, 1)
}

// Run compiles tr and replays it once on platform p with a fresh arena; the
// result is owned by the caller. The trace rank count must not exceed
// p.Processors, and a nil trace yields ErrNilTrace. Callers that replay one
// trace many times compile it once (Compile) and replay the Program on a
// reused arena (RunProgram, RunProgramShards) or a pooled one
// (ReplaySummary, ReplayInto).
func Run(p network.Platform, tr *trace.Trace) (*Result, error) {
	prog, err := Compile(tr)
	if err != nil {
		return nil, err
	}
	return NewArena().RunProgram(p, prog)
}

// ---------------------------------------------------------------------------
// Replay

// replay checks a replay request, resets the arena for it and executes
// the event loop — serially, or on the effective shard count (see
// EffectiveShards). timeline selects a full replay; without it the same
// events run with the interval timeline and the comm log switched off,
// and only the per-rank statistics a Summary needs are kept. A completed
// sharded replay leaves the program its partition's ShardNote if it has
// none yet. Every replay entry point goes through replay.
func (a *ReplayArena) replay(p network.Platform, prog *Program, shards int, timeline bool) error {
	if prog == nil {
		return errors.New("sim: nil program")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	// First, because everything below indexes per-processor state by rank.
	if prog.numRanks > p.Processors {
		return fmt.Errorf("sim: trace has %d ranks but platform has %d processors", prog.numRanks, p.Processors)
	}
	n := EffectiveShards(p, prog, shards)
	a.reset(p, prog, timeline)
	if n > 1 {
		a.replayShards(n)
	} else if err := a.replaySerial(); err != nil {
		return err
	}
	if err := a.finishReplay(); err != nil {
		return err
	}
	if n > 1 {
		prog.recordNote(partitionOf(p, n), &a.stats)
	}
	return nil
}

// replaySerial runs the event loop on the arena's own queue.
func (a *ReplayArena) replaySerial() error {
	for r := 0; r < a.prog.numRanks; r++ {
		a.sched(nil, 0, evAdvance, int32(r), 0)
	}
	for a.evq.len() > 0 {
		e := a.evq.pop()
		if e.t < a.now {
			return fmt.Errorf("sim: time ran backwards: %g < %g", e.t, a.now)
		}
		a.now = e.t
		a.dispatch(e, nil)
	}
	return nil
}

// finishReplay validates that every rank ran to completion and harvests
// the replay's statistics — the common tail of the serial and sharded
// replay loops.
func (a *ReplayArena) finishReplay() error {
	var blocked []string
	for r := range a.ranks {
		if rs := &a.ranks[r]; !rs.done {
			blocked = append(blocked, blockedDesc(a.prog, r, int(rs.pc)))
		}
	}
	if blocked != nil {
		if a.fxDropped > 0 {
			mFaultDropped.AddInt(a.fxDropped)
		}
		return &DeadlockError{Trace: a.prog.name, Blocked: blocked, Dropped: a.fxDropped}
	}
	a.harvestStats()
	return nil
}

// dispatch executes one popped event at its own timestamp. Handlers never
// read the global clock — every time they need is the event's time or state
// recorded alongside the match — so dispatch is valid from the serial loop
// and from a PDES shard alike.
func (a *ReplayArena) dispatch(e event, rt *shard) {
	switch e.kind {
	case evAdvance:
		a.advance(&a.ranks[e.a], e.t, rt)
	case evSendResume:
		rs := &a.ranks[e.a]
		rs.blocked = blockNone
		rs.pc++
		a.advance(rs, e.t, rt)
	case evArrive:
		st := &a.streams[e.a]
		si := &a.prog.streams[e.a]
		if a.nodeOf[si.src] != a.nodeOf[si.dst] {
			a.inFlight--
		}
		st.arrivals[e.b] = e.t
		if int(e.b) < len(st.posts) {
			a.completePair(e.a, int(e.b), rt)
		}
	}
}

// blockedDesc renders one stalled rank for the deadlock report. A pc at or
// past the end of the rank's record stream means the rank ran out of
// records while a dependent was still blocked on it — reported as such
// instead of formatting a zero-valued record.
func blockedDesc(prog *Program, rank, pc int) string {
	code := prog.code[rank]
	if pc >= len(code) {
		return fmt.Sprintf("rank %d at record %d (at end of trace)", rank, pc)
	}
	in := &code[pc]
	return fmt.Sprintf("rank %d at record %d (%s peer=%d tag=%d chunk=%d)",
		rank, pc, in.op, in.peer, in.tag, in.chunk)
}

// summary reduces a completed replay to its retained scalars. The
// makespan is the latest rank finish, as in assemble, and the wait and
// compute totals sum the rank statistics in rank order; the traffic
// split sums the compile-time per-stream totals by the replay's
// rank→node table. A completed replay executed every send, so the split
// equals Result.TrafficSplit over the comm log a full replay would
// record.
func (a *ReplayArena) summary() Summary {
	var s Summary
	for r := range a.ranks {
		st := &a.ranks[r].stats
		if st.FinishSec > s.FinishSec {
			s.FinishSec = st.FinishSec
		}
		s.TotalWaitSec += st.WaitSec
		s.TotalComputeSec += st.ComputeSec
	}
	for i := range a.prog.streams {
		si := &a.prog.streams[i]
		if a.nodeOf[si.src] == a.nodeOf[si.dst] {
			s.IntraBytes += si.bytes
			s.IntraMsgs += int(si.sends)
		} else {
			s.InterBytes += si.bytes
			s.InterMsgs += int(si.sends)
		}
	}
	return s
}

// assemble builds the Result view over the arena's accumulators.
func (a *ReplayArena) assemble() *Result {
	a.result = Result{Ranks: a.rankStats[:0], Comms: a.comms}
	total := 0
	for r := range a.ranks {
		rs := &a.ranks[r]
		a.result.Ranks = append(a.result.Ranks, rs.stats)
		if rs.stats.FinishSec > a.result.FinishSec {
			a.result.FinishSec = rs.stats.FinishSec
		}
		total += len(a.rankIvs[r])
	}
	a.rankStats = a.result.Ranks
	if cap(a.intervals) < total {
		a.intervals = make([]Interval, 0, total)
	}
	a.intervals = a.intervals[:0]
	for r := range a.rankIvs {
		a.intervals = append(a.intervals, a.rankIvs[r]...)
	}
	a.result.Intervals = a.intervals
	return &a.result
}

// reset prepares the arena's state for one replay of prog on p. Every
// buffer is recycled; the only allocations are capacity growth beyond any
// previous replay (and pool rebuilds when the platform shape changes). A
// summary replay (timeline false) leaves the interval and comm buffers
// untouched.
func (a *ReplayArena) reset(p network.Platform, prog *Program, timeline bool) {
	a.prog = prog
	a.cost = p.Costs()
	a.timeline = timeline
	a.evq.reset()
	a.now = 0
	a.inFlight = 0
	a.stats = ReplayStats{Shards: 1}
	a.replayStart = time.Now()

	a.nodeOf = grow(a.nodeOf, p.Processors)
	for r := 0; r < p.Processors; r++ {
		a.nodeOf[r] = p.NodeOf(r)
	}
	a.resetPools(p)
	a.resetFaults(p)

	// Backing arrays for the match and handle state.
	a.arrivalsBuf = grow(a.arrivalsBuf, prog.totalSends)
	a.matchedBuf = grow(a.matchedBuf, prog.totalSends)
	a.pendBuf = grow(a.pendBuf, prog.totalSends)
	a.postsBuf = grow(a.postsBuf, prog.totalPosts)
	a.hTimeBuf = grow(a.hTimeBuf, prog.totalHandles)
	a.hArrBuf = grow(a.hArrBuf, prog.totalHandles)
	a.hActiveBuf = grow(a.hActiveBuf, prog.totalHandles)
	// Sized by IRecv records, not distinct handles: each legal repost of a
	// handle after its Wait appends a fresh entry (stale ones are skipped
	// lazily), so the worst case is one entry per IRecv.
	a.activeBuf = grow(a.activeBuf, prog.totalIRecvs)
	nan := math.NaN()
	for i := 0; i < prog.totalSends; i++ {
		a.arrivalsBuf[i] = nan
		a.matchedBuf[i] = false
	}
	for i := 0; i < prog.totalHandles; i++ {
		a.hTimeBuf[i] = nan
		a.hArrBuf[i] = nan
		a.hActiveBuf[i] = false
	}

	if cap(a.streams) < len(prog.streams) {
		a.streams = make([]streamState, len(prog.streams))
	}
	a.streams = a.streams[:len(prog.streams)]
	for i := range prog.streams {
		si := &prog.streams[i]
		a.streams[i] = streamState{
			arrivals: a.arrivalsBuf[si.sendOff : si.sendOff+si.sends],
			matched:  a.matchedBuf[si.sendOff : si.sendOff+si.sends],
			posts:    a.postsBuf[si.postOff : si.postOff : si.postOff+si.posts],
			pendQ:    a.pendBuf[si.sendOff : si.sendOff : si.sendOff+si.sends],
		}
	}

	if cap(a.ranks) < prog.numRanks {
		a.ranks = make([]rankState, prog.numRanks)
	}
	a.ranks = a.ranks[:prog.numRanks]
	for r := 0; r < prog.numRanks; r++ {
		off := prog.handleOff[r]
		n := prog.handles[r]
		irOff := prog.irecvOff[r]
		a.ranks[r] = rankState{
			rank:    int32(r),
			hTime:   a.hTimeBuf[off : off+n],
			hArr:    a.hArrBuf[off : off+n],
			hActive: a.hActiveBuf[off : off+n],
			active:  a.activeBuf[irOff : irOff : irOff+prog.irecvs[r]],
		}
	}

	if !timeline {
		return
	}
	// Output accumulators. Comms are slot-addressed: send seq n of stream s
	// owns slot streams[s].sendOff+n, assigned at compile time, so every
	// write lands at a statically known index no matter which order — or on
	// which shard — the sends execute. Slots need no clearing: a replay
	// only assembles a Result after every rank finished, which implies
	// every send executed and wrote its slot.
	a.comms = grow(a.comms, prog.totalSends)
	if cap(a.rankIvs) < prog.numRanks {
		a.rankIvs = append(a.rankIvs[:cap(a.rankIvs)], make([][]Interval, prog.numRanks-cap(a.rankIvs))...)
	}
	a.rankIvs = a.rankIvs[:prog.numRanks]
	for r := range a.rankIvs {
		a.rankIvs[r] = a.rankIvs[r][:0]
	}
	a.rankStats = grow(a.rankStats, prog.numRanks)
}

// resetFaults resolves the platform's Degradations spec into the
// arena's per-replay fault state: seeded draws (straggler ranks, downed
// links) are made once here, so the replay itself reads only immutable
// buffers and every draw is a pure function of the spec — independent
// of execution order, which keeps serial and PDES replays
// byte-identical. A zero spec clears the guard flags and touches
// nothing else, preserving the healthy path's zero-allocation replay.
func (a *ReplayArena) resetFaults(p network.Platform) {
	a.fxDropped = 0
	d := p.Degradations.Canonical()
	if d.IsZero() {
		a.fxOn, a.fxHard, a.fxStrag = false, false, false
		a.fxDerIntra, a.fxDerInter, a.fxJitter = 0, 0, 0
		return
	}
	a.fxOn = true
	a.fxDerIntra, a.fxDerInter, a.fxJitter = d.DerateIntra, d.DerateInter, d.JitterFrac
	a.fxSeed = d.EffectiveSeed()

	a.fxStrag = d.StragglerFactor > 1
	if a.fxStrag {
		a.fxStragMul = grow(a.fxStragMul, p.Processors)
		for i := range a.fxStragMul {
			a.fxStragMul[i] = 1
		}
		for _, r := range d.StragglerRanks {
			a.fxStragMul[r] = d.StragglerFactor
		}
		if d.Stragglers > 0 {
			a.fxPickBuf = a.fxDraws.PickRanks(a.fxSeed, d.Stragglers, p.Processors, a.fxPickBuf[:0])
			for _, r := range a.fxPickBuf {
				a.fxStragMul[r] = d.StragglerFactor
			}
		}
	}

	a.fxHard = len(d.DownNodes) > 0 || len(d.DownLinks) > 0 || d.LinkDown > 0
	if a.fxHard {
		a.fxNICDown = grow(a.fxNICDown, p.Nodes)
		for i := range a.fxNICDown {
			a.fxNICDown[i] = false
		}
		for _, n := range d.DownNodes {
			a.fxNICDown[n] = true
		}
		// The downed pairs are a function of the key alone, and a seeded
		// draw of many links costs far more than the replay it feeds, so
		// the process keeps its last draw for the next replay with the
		// same key, on any arena.
		key := pairsKey{seed: a.fxSeed, linkDown: d.LinkDown, nodes: p.Nodes, links: d.DownLinks}
		last := lastPairs.Load()
		if last == nil || !key.equal(last.key) {
			var pairs []uint64
			for _, pr := range d.DownLinks {
				pairs = append(pairs, uint64(pr[0])<<32|uint64(pr[1]))
			}
			if d.LinkDown > 0 {
				// Explicit pairs arrive sorted (Canonical); the seeded ones
				// append in draw order.
				pairs = a.fxDraws.PickPairs(a.fxSeed, d.LinkDown, p.Nodes, pairs)
				slices.Sort(pairs)
			}
			key.links = slices.Clone(d.DownLinks)
			last = &drawnPairs{key: key, pairs: pairs}
			lastPairs.Store(last)
		}
		a.fxPairs = last.pairs
	}
}

// lastPairs is the process's last downed-pair draw: one immutable value
// every arena reads, so pooled arenas, and the fresh arenas a GC leaves
// the pool to hand out, reuse it instead of drawing again. A new draw
// goes into a fresh slice and replaces the value whole; nothing writes
// into a slice once it is shared.
var lastPairs atomic.Pointer[drawnPairs]

// drawnPairs is one downed-pair draw and the key it was drawn for.
type drawnPairs struct {
	key   pairsKey
	pairs []uint64
}

// pairsKey is what downed pairs are drawn from: the effective seed, the
// seeded link count, the node count and the explicit links.
type pairsKey struct {
	seed     uint64
	linkDown int
	nodes    int
	links    [][2]int
}

func (k pairsKey) equal(o pairsKey) bool {
	return k.seed == o.seed && k.linkDown == o.linkDown && k.nodes == o.nodes && slices.Equal(k.links, o.links)
}

// linkFaulted reports whether the inter-node path between two nodes is
// severed by a downed NIC on either end or a downed direct link.
func (a *ReplayArena) linkFaulted(sn, dn int) bool {
	if a.fxNICDown[sn] || a.fxNICDown[dn] {
		return true
	}
	lo, hi := sn, dn
	if lo > hi {
		lo, hi = hi, lo
	}
	_, down := slices.BinarySearch(a.fxPairs, uint64(lo)<<32|uint64(hi))
	return down
}

// resetPools recycles the resource calendars, rebuilding them only when
// the platform's pool shape differs from the previous replay's.
func (a *ReplayArena) resetPools(p network.Platform) {
	same := a.poolNodes == p.Nodes && a.poolBuses == p.Buses &&
		a.poolIntra == p.IntraBuses && a.poolIn == p.InPorts && a.poolOut == p.OutPorts
	if !same {
		a.poolNodes, a.poolBuses = p.Nodes, p.Buses
		a.poolIntra, a.poolIn, a.poolOut = p.IntraBuses, p.InPorts, p.OutPorts
		a.interRes = resource{units: make([]unitCalendar, p.Buses)}
		a.intraRes = makeResources(p.Nodes, p.IntraBuses)
		a.inRes = makeResources(p.Nodes, p.InPorts)
		a.outRes = makeResources(p.Nodes, p.OutPorts)
		a.interBuses = a.interRes.ptr()
		a.intraBuses = resourcePtrs(a.intraBuses, a.intraRes)
		a.nodeIn = resourcePtrs(a.nodeIn, a.inRes)
		a.nodeOut = resourcePtrs(a.nodeOut, a.outRes)
		return
	}
	a.interRes.reset()
	for i := range a.intraRes {
		a.intraRes[i].reset()
	}
	for i := range a.inRes {
		a.inRes[i].reset()
	}
	for i := range a.outRes {
		a.outRes[i].reset()
	}
}

func makeResources(nodes, units int) []resource {
	rs := make([]resource, nodes)
	if units > 0 {
		for i := range rs {
			rs[i].units = make([]unitCalendar, units)
		}
	}
	return rs
}

func resourcePtrs(dst []*resource, rs []resource) []*resource {
	dst = dst[:0]
	for i := range rs {
		dst = append(dst, rs[i].ptr())
	}
	return dst
}

// grow returns a length-n view of s, reallocating (without copying — the
// caller refills) only when the capacity is insufficient.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ---------------------------------------------------------------------------
// Event scheduling

// sched enqueues an event at time t. rt names the executing owner of a
// sharded replay, which routes the event to the right queue (see pdes.go);
// the serial loop passes nil and targets the arena's own queue.
func (a *ReplayArena) sched(rt *shard, t float64, kind uint8, x, y int32) {
	e := event{t: t, kind: kind, a: x, b: y}
	if rt == nil {
		a.evq.push(e)
		return
	}
	rt.route(a, e)
}

// ---------------------------------------------------------------------------
// Rank program execution

func (a *ReplayArena) addInterval(rank int, start, end float64, st State) {
	if !a.timeline || end <= start {
		return
	}
	a.rankIvs[rank] = append(a.rankIvs[rank], Interval{Rank: rank, Start: start, End: end, State: st})
}

// advance runs the rank's instruction stream from its program counter
// until it blocks, needs to let simulated time pass, or finishes.
func (a *ReplayArena) advance(rs *rankState, now float64, rt *shard) {
	rank := int(rs.rank)
	rs.clock = now
	code := a.prog.code[rank]
	for {
		if int(rs.pc) >= len(code) {
			rs.done = true
			rs.stats.FinishSec = rs.clock
			return
		}
		in := &code[rs.pc]
		if rt != nil && rt.id >= 0 && in.stream >= 0 && a.pdes.streamShard[in.stream] < 0 {
			// Shard mode: the next instruction touches an inter-node
			// stream, which only the coordinator may execute. Park the
			// walk here and hand the continuation over; the coordinator
			// resumes it at the same clock in global key order.
			a.sched(rt, rs.clock, evAdvance, int32(rank), 0)
			return
		}
		switch in.op {
		case trace.KindCompute:
			d := a.cost.ComputeSec(in.arg)
			if a.fxStrag {
				d *= a.fxStragMul[rank]
			}
			if d <= 0 {
				rs.pc++
				continue
			}
			a.addInterval(rank, rs.clock, rs.clock+d, StateCompute)
			rs.stats.ComputeSec += d
			rs.pc++
			a.sched(rt, rs.clock+d, evAdvance, int32(rank), 0)
			return
		case trace.KindSend, trace.KindISend:
			if a.startSend(rs, rank, in, in.op == trace.KindSend, rt) {
				rs.pc++
				continue
			}
			return // parked: rendezvous handshake
		case trace.KindRecv:
			st := &a.streams[in.stream]
			seq := len(st.posts)
			st.posts = append(st.posts, post{kind: postBlocking, t: rs.clock})
			a.wakeRendezvous(in.stream, seq, rs.clock, rt)
			if seq < len(st.arrivals) && !math.IsNaN(st.arrivals[seq]) {
				if st.arrivals[seq] < rs.clock {
					// Serial-visible arrival (its event orders strictly
					// before this walk): the message is already here, the
					// receive completes at this clock with no wait.
					a.completePair(in.stream, seq, rt)
					rs.pc++
					continue
				}
				// The arrival is stamped but its event time does not
				// precede this walk — sharded run-ahead processed it out
				// of walk order. Serial would block here and be woken by
				// that arrival; replay that wake now with the same times.
				rs.blocked = blockRecv
				rs.blockStart = rs.clock
				a.completePair(in.stream, seq, rt)
				return
			}
			rs.blocked = blockRecv
			rs.blockStart = rs.clock
			return
		case trace.KindIRecv:
			st := &a.streams[in.stream]
			seq := len(st.posts)
			st.posts = append(st.posts, post{kind: postNonBlocking, handle: in.handle, t: rs.clock})
			rs.postHandle(in.handle)
			a.wakeRendezvous(in.stream, seq, rs.clock, rt)
			if seq < len(st.arrivals) && !math.IsNaN(st.arrivals[seq]) {
				a.completePair(in.stream, seq, rt)
			}
			rs.pc++
			continue
		case trace.KindWait:
			if in.handle < 0 || !rs.hActive[in.handle] {
				rs.pc++ // Validate() prevents this; defensive.
				continue
			}
			if !math.IsNaN(rs.hTime[in.handle]) {
				if rs.hArr[in.handle] < rs.clock {
					// Serial-visible completion: no wait.
					rs.hActive[in.handle] = false
					rs.pc++
					continue
				}
				// Completed by a run-ahead arrival whose event does not
				// precede this walk: serial blocks here and that arrival
				// wakes it. Replay the wake with the same times.
				rs.hActive[in.handle] = false
				rs.blockStart = rs.clock
				a.wakeFromWait(rs, rank, rs.hTime[in.handle], rt)
				return
			}
			rs.blocked = blockWait
			rs.waitHandle = in.handle
			rs.blockStart = rs.clock
			return
		case trace.KindWaitAll:
			if rs.incomplete == 0 {
				// All handles complete; the barrier is visible only once
				// every completing arrival precedes this walk. maxArr is
				// the serial wake time otherwise: arrivals complete the
				// pairs in event order, so the last one — the maximum —
				// triggers the serial wake.
				maxArr := math.Inf(-1)
				for _, h := range rs.active {
					// Skip entries gone stale through a single Wait.
					if rs.hActive[h] && rs.hArr[h] > maxArr {
						maxArr = rs.hArr[h]
					}
				}
				if maxArr < rs.clock {
					rs.waitAllDone()
					rs.pc++
					continue
				}
				for _, h := range rs.active {
					rs.hActive[h] = false
				}
				rs.active = rs.active[:0]
				rs.blockStart = rs.clock
				a.wakeFromWait(rs, rank, maxArr, rt)
				return
			}
			rs.blocked = blockWaitAll
			rs.blockStart = rs.clock
			return
		default:
			rs.pc++ // unknown records are skipped
			continue
		}
	}
}

// postHandle activates a handle for a fresh IRecv.
func (rs *rankState) postHandle(h int32) {
	if h < 0 {
		return
	}
	if rs.hActive[h] {
		// Repost while outstanding: Validate() rejects this, but mirror
		// the old engine's map semantics — the handle becomes incomplete
		// again.
		if !math.IsNaN(rs.hTime[h]) {
			rs.incomplete++
		}
		rs.hTime[h] = math.NaN()
		rs.hArr[h] = math.NaN()
		return
	}
	rs.hActive[h] = true
	rs.hTime[h] = math.NaN()
	rs.hArr[h] = math.NaN()
	rs.active = append(rs.active, h)
	rs.incomplete++
}

// waitAllDone reports whether every outstanding handle has completed,
// clearing them all when so.
func (rs *rankState) waitAllDone() bool {
	if rs.incomplete > 0 {
		return false
	}
	for _, h := range rs.active {
		rs.hActive[h] = false
	}
	rs.active = rs.active[:0]
	return true
}

// startSend initiates the transfer for a send record. It returns true when
// the rank may continue immediately (every eager send, and an ISend in
// any protocol) and false when a blocking rendezvous send parked it until
// the matching receive is posted.
func (a *ReplayArena) startSend(rs *rankState, rank int, in *instr, blocking bool, rt *shard) bool {
	st := &a.streams[in.stream]
	seq := int(st.nSends)
	st.nSends++
	rs.stats.MsgsSent++
	rs.stats.BytesSent += in.arg
	// Send seq n of a stream owns the compile-time comm slot sendOff+n, so
	// records land in their final position with no per-send allocation and
	// no post-replay merge — and concurrent shards never contend for an
	// append cursor.
	commIdx := int(a.prog.streams[in.stream].sendOff) + seq
	if a.timeline {
		a.comms[commIdx] = Comm{
			Src: rank, Dst: int(in.peer), Tag: int(in.tag), Chunk: int(in.chunk),
			Bytes: in.arg, MsgID: in.msgID, SendT: rs.clock,
			Intra:  a.nodeOf[rank] == a.nodeOf[in.peer],
			StartT: math.NaN(), ArriveT: math.NaN(), MatchT: math.NaN(),
		}
	}
	if !a.cost.Eager(in.arg) && seq >= len(st.posts) {
		// Rendezvous: the matching receive is not posted yet.
		st.pendQ = append(st.pendQ, pendingTransfer{
			seq: int32(seq), commIdx: int32(commIdx), bytes: in.arg,
			readyT: rs.clock, blocking: blocking,
		})
		if blocking {
			rs.blocked = blockSendRendezvous
			rs.blockStart = rs.clock
			return false
		}
		return true
	}
	// Eager transfers follow Dimemas's asynchronous-send default: the
	// sender resumes immediately and the NIC performs the transfer in
	// the background (the OS-bypass capability the paper assumes). Only
	// rendezvous sends block the issuing rank.
	a.launch(in.stream, seq, in.arg, rs.clock, commIdx, rt)
	return true
}

// launch performs resource acquisition, schedules the arrival event, and
// returns the injection-complete time on the sender.
//
// The transfer's locality decides both its cost model and its resource
// set: intra-node transfers pay the intra link's latency/bandwidth and
// queue only on the node's shared-memory bus pool (they never touch the
// NIC or the interconnect); inter-node transfers pay the inter link and
// queue on a global bus, the source node's output port, and the
// destination node's input port.
//
// Ports and buses are occupied for the serialization time: latency models
// pipeline depth (wire time plus software overhead), not channel
// occupancy, so concurrent messages only queue on each other's
// size/bandwidth terms. This keeps the chunked traces from paying the
// latency once per chunk in *occupancy* (they still pay it per chunk in
// flight time).
// Under an active Degradations spec the transfer may additionally be
// derated (serialization divided by the link class's derate factor),
// jittered (inter-node latency scaled by a deterministic per-transfer
// draw), or dropped outright when it crosses a downed NIC or link — a
// dropped transfer occupies no resources, schedules no arrival, and
// reports ok=false so a blocking rendezvous sender stays parked.
func (a *ReplayArena) launch(streamID int32, seq int, bytes int64, t float64, commIdx int, rt *shard) (float64, bool) {
	si := &a.prog.streams[streamID]
	src, dst := int(si.src), int(si.dst)
	intra := a.nodeOf[src] == a.nodeOf[dst]
	if a.fxHard && !intra && a.linkFaulted(a.nodeOf[src], a.nodeOf[dst]) {
		a.fxDropped++
		return t, false
	}
	link := a.cost.Link(intra)
	ser := link.SerializationSec(bytes)
	if a.fxOn {
		if intra {
			if a.fxDerIntra > 0 {
				ser /= a.fxDerIntra
			}
		} else if a.fxDerInter > 0 {
			ser /= a.fxDerInter
		}
	}
	if !intra {
		// Transfers entering a loaded interconnect serialize slower.
		// inFlight counts inter-node messages and is sampled at launch;
		// intra-node traffic never contributes.
		ser = a.cost.Congested(ser, a.inFlight)
	}
	lat := link.LatencySec
	if a.fxJitter > 0 && !intra {
		// Jitter is a pure function of the transfer's compile-time
		// identity (stream, seq) under the spec's seed: any replay —
		// serial or sharded, first or cached-warm — draws the same value.
		lat *= 1 + a.fxJitter*faults.Unit(a.fxSeed, uint64(streamID), uint64(seq))
	}
	flight := lat + ser
	// Joint acquisition: find the earliest common start at which every
	// pool of the transfer's resource set is free for the serialization
	// window. The fixpoint loop converges because each probe only moves
	// the candidate start forward.
	pools := [3]*resource{a.intraBuses[a.nodeOf[src]], nil, nil}
	if !intra {
		pools = [3]*resource{a.interBuses, a.nodeOut[a.nodeOf[src]], a.nodeIn[a.nodeOf[dst]]}
	}
	var units [3]int
	start := t
	for iter := 0; iter < 64; iter++ {
		moved := false
		for i, pool := range pools {
			if pool == nil {
				continue
			}
			u, ft := pool.earliestFit(start, ser)
			units[i] = u
			if ft > start {
				start = ft
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	for i, pool := range pools {
		if pool != nil {
			pool.commit(units[i], start, ser)
		}
	}
	arrive := start + flight
	if a.timeline {
		a.comms[commIdx].StartT = start
		a.comms[commIdx].ArriveT = arrive
	}
	if !intra {
		a.inFlight++
	}
	a.sched(rt, arrive, evArrive, streamID, int32(seq))
	return start + ser, true
}

// wakeRendezvous starts any rendezvous transfer whose matching post just
// appeared. Pending sends queue in strictly increasing seq order, so the
// head of the queue is the only candidate for the new post.
func (a *ReplayArena) wakeRendezvous(streamID int32, postSeq int, now float64, rt *shard) {
	st := &a.streams[streamID]
	if int(st.pendHead) >= len(st.pendQ) {
		return
	}
	pt := &st.pendQ[st.pendHead]
	if int(pt.seq) != postSeq {
		return
	}
	st.pendHead++
	start := pt.readyT
	if now > start {
		start = now
	}
	injectEnd, ok := a.launch(streamID, int(pt.seq), pt.bytes, start, int(pt.commIdx), rt)
	if pt.blocking {
		if !ok {
			// The transfer crossed a downed NIC/link and can never
			// inject: the blocking sender stays parked and the replay
			// ends in a fault-attributed DeadlockError.
			return
		}
		src := a.prog.streams[streamID].src
		rs := &a.ranks[src]
		a.addInterval(int(src), rs.blockStart, injectEnd, StateSendBlocked)
		rs.stats.SendBlockedSec += injectEnd - rs.blockStart
		a.sched(rt, injectEnd, evSendResume, src, 0)
	}
}

// completePair finishes the match of pair seq of one stream: it stamps the
// comm event, completes the receive (blocking or handle), and wakes the
// destination rank if it was blocked on this completion.
func (a *ReplayArena) completePair(streamID int32, seq int, rt *shard) {
	st := &a.streams[streamID]
	if seq >= len(st.matched) || st.matched[seq] {
		return
	}
	if seq >= len(st.posts) || math.IsNaN(st.arrivals[seq]) {
		return
	}
	st.matched[seq] = true
	p := st.posts[seq]
	// The match time is max(arrival, post): whichever event of this call
	// completed the pair happens at or before that maximum, so no clamp to
	// the triggering event's time is needed — completion times are pure
	// functions of the pair, independent of execution order.
	done := st.arrivals[seq]
	if p.t > done {
		done = p.t
	}
	if a.timeline {
		a.comms[int(a.prog.streams[streamID].sendOff)+seq].MatchT = done
	}
	dst := int(a.prog.streams[streamID].dst)
	rs := &a.ranks[dst]
	switch p.kind {
	case postBlocking:
		if rs.blocked == blockRecv {
			// The rank can only be blocked on the oldest unmatched
			// blocking post, which is this one (a rank posts at most
			// one blocking recv at a time).
			a.wakeFromWait(rs, dst, done, rt)
		}
	case postNonBlocking:
		if rs.hActive[p.handle] && math.IsNaN(rs.hTime[p.handle]) {
			rs.incomplete--
		}
		rs.hTime[p.handle] = done
		rs.hArr[p.handle] = st.arrivals[seq]
		switch rs.blocked {
		case blockWait:
			if rs.waitHandle == p.handle {
				rs.hActive[p.handle] = false
				a.wakeFromWait(rs, dst, done, rt)
			}
		case blockWaitAll:
			if rs.incomplete == 0 {
				// The serial wake comes from the last completion in event
				// order — the maximum arrival. A run-ahead shard may have
				// completed a later-arriving pair before this one, so the
				// triggering done alone is not enough.
				wake := done
				for _, h := range rs.active {
					if rs.hActive[h] && rs.hArr[h] > wake {
						wake = rs.hArr[h]
					}
				}
				for _, h := range rs.active {
					rs.hActive[h] = false
				}
				rs.active = rs.active[:0]
				a.wakeFromWait(rs, dst, wake, rt)
			}
		}
	}
}

func (a *ReplayArena) wakeFromWait(rs *rankState, rank int, done float64, rt *shard) {
	resume := done
	if resume < rs.blockStart {
		resume = rs.blockStart
	}
	a.addInterval(rank, rs.blockStart, resume, StateWaitRecv)
	rs.stats.WaitSec += resume - rs.blockStart
	rs.blocked = blockNone
	rs.pc++
	a.sched(rt, resume, evAdvance, int32(rank), 0)
}
