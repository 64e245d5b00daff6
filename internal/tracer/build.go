package tracer

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/trace"
)

// This file turns a Run's event logs into the three Dimemas-style traces:
//
//   - BaseTrace: the original execution — compute bursts between MPI events
//     plus blocking Send/Recv records, exactly what the legacy code did.
//   - OverlapReal: every tracked message split into chunks; each chunk's
//     ISend is placed at the virtual time of the chunk's *last store*
//     within its production interval (advancing sends), the chunk IRecvs
//     are posted where the original receive was (the paper's tracer emits
//     one non-blocking-receive record per chunk on intercepting the
//     receive call), and each chunk's Wait is placed at the virtual time of
//     the chunk's *first load* within its consumption interval
//     (post-postponing receptions).
//   - OverlapIdeal: the same transformation but with chunk sends and waits
//     uniformly distributed across the original computation bursts — the
//     best case of Eq. 1 in the paper.
//
// Production intervals span consecutive sends of the same buffer and
// consumption intervals span consecutive receives of the same buffer,
// matching the definitions in Section V.A of the paper. Double buffering is
// what lets the transformed execution keep only one outstanding generation
// per buffer; the builder enforces it by draining un-consumed chunk waits
// just before the buffer's next reception, and a final WaitAll at the end
// of each rank.
//
// Every build reads a chunk-independent comm skeleton of each rank log
// (commSkeleton), computed once per Log and shared by every WithChunks
// variant; logs and skeletons are immutable after Trace. Cost model per
// rank: BaseTrace and OverlapIdeal walk only the skeleton, O(comm
// events). OverlapReal (and OverlapSelective for its non-ideal
// buffers) adds exactly one forward scan of the log, O(events) time, with
// O(comm events × chunks) extra memory for the per-chunk schedule — no
// per-access lists. That scan streams the log's 16-byte Events; comm
// details come from the log's side table (Log.comms), read only at comm
// events.

// commSkeleton is the chunk-independent communication structure of one
// rank log: its comm events in program order and, per tracked array, which
// of them are the array's sends and receive instances. Its size grows with
// comm events, not with load/store events.
type commSkeleton struct {
	// slots holds every comm event (EvSend, EvISend, EvRecv, EvIRecvPost,
	// EvRecvWait, EvSendRaw, EvRecvRaw) in program order.
	slots []commSlot
	// prevStrict[s] / nextStrict[s] delimit the computation bursts around
	// slot s for the ideal variant: the nearest comm times strictly below
	// and above its own (0 before the first, FinalClock after the last).
	// Consecutive comm events at the same virtual instant (a halo-exchange
	// phase, a collective's internal steps) belong to one communication
	// phase and must not collapse the burst to zero length.
	prevStrict, nextStrict []int64
	// sends[a] lists the slots of array a's EvSend/EvISend events.
	sends [][]int
	// recvs[a] lists array a's receive instances in posting order.
	recvs [][]recvInst
	// comm[a] marks array a as communicated: sent, received, or passed
	// through a collective (BufferNames).
	comm []bool
}

// commSlot is one comm event: its index in Log.Events and, for EvRecv /
// EvIRecvPost, which receive instance of its array it posts (else -1).
type commSlot struct {
	ev, inst int
}

// recvInst pairs a receive's posting slot with the slot at which the data
// became available on the rank: for blocking receives both are the EvRecv
// itself, for non-blocking ones the EvIRecvPost and its EvRecvWait (the
// post itself when never waited).
type recvInst struct {
	post, wait int
	// loadFrom is the event index at which the instance's consumption
	// window opens: the latest wait of this or any earlier instance of the
	// array. The window closes at the next instance's post.
	loadFrom int
}

// skeleton returns the log's comm skeleton, computing it on first use.
func (l *Log) skeleton() *commSkeleton {
	l.skelOnce.Do(func() { l.skel = newCommSkeleton(l) })
	return l.skel
}

func newCommSkeleton(l *Log) *commSkeleton {
	nArr := len(l.ArrayLens)
	s := &commSkeleton{sends: make([][]int, nArr), recvs: make([][]recvInst, nArr), comm: make([]bool, nArr)}
	type posted struct{ arr, inst int }
	unwaited := map[int]posted{} // tracked irecv handle -> its receive instance
	for i, e := range l.Events {
		slot, inst := len(s.slots), -1
		switch a := e.arr; e.Kind {
		case EvSend, EvISend:
			s.comm[a] = true
			s.sends[a] = append(s.sends[a], slot)
		case EvRecv, EvIRecvPost:
			s.comm[a] = true
			inst = len(s.recvs[a])
			s.recvs[a] = append(s.recvs[a], recvInst{post: slot, wait: slot})
			if e.Kind == EvIRecvPost {
				unwaited[l.comms[e.op].Handle] = posted{int(a), inst}
			}
		case EvRecvWait:
			h := l.comms[e.op].Handle
			if p, ok := unwaited[h]; ok {
				s.recvs[p.arr][p.inst].wait = slot
				delete(unwaited, h)
			}
		case EvSendRaw, EvRecvRaw:
		case EvCollSend, EvCollRecv:
			s.comm[a] = true
			continue
		default:
			continue
		}
		s.slots = append(s.slots, commSlot{ev: i, inst: inst})
	}
	for _, insts := range s.recvs {
		from := -1
		for j := range insts {
			from = max(from, s.slots[insts[j].wait].ev)
			insts[j].loadFrom = from
		}
	}
	n := len(s.slots)
	s.prevStrict = make([]int64, n)
	s.nextStrict = make([]int64, n)
	t := func(k int) int64 { return l.Events[s.slots[k].ev].T }
	for k := 1; k < n; k++ {
		if t(k-1) < t(k) {
			s.prevStrict[k] = t(k - 1)
		} else {
			s.prevStrict[k] = s.prevStrict[k-1]
		}
	}
	for k := n - 1; k >= 0; k-- {
		switch {
		case k == n-1:
			s.nextStrict[k] = l.FinalClock
		case t(k+1) > t(k):
			s.nextStrict[k] = t(k + 1)
		default:
			s.nextStrict[k] = s.nextStrict[k+1]
		}
	}
	return s
}

// rankWriter accumulates one rank's records, splitting compute bursts at
// every emitted event.
type rankWriter struct {
	recs  []trace.Record
	lastT int64
}

func (w *rankWriter) reset() {
	w.recs = w.recs[:0]
	w.lastT = 0
}

func (w *rankWriter) compute(to int64) {
	if to > w.lastT {
		w.recs = append(w.recs, trace.Record{Kind: trace.KindCompute, Instr: to - w.lastT})
		w.lastT = to
	}
}

func (w *rankWriter) emit(rec trace.Record) { w.recs = append(w.recs, rec) }

// records returns an exact-size copy of the rank's records (nil when
// there are none), leaving the writer's buffer for reuse by the next rank.
func (w *rankWriter) records() []trace.Record {
	if len(w.recs) == 0 {
		return nil
	}
	return slices.Clone(w.recs)
}

// BaseTrace builds the non-overlapped trace of the original execution.
func (r *Run) BaseTrace() *trace.Trace {
	tr := trace.New(r.Name, "base", r.NumRanks)
	var w rankWriter
	for rank, log := range r.Logs {
		w.reset()
		var msgSeq int64
		anyIRecv := false
		for _, s := range log.skeleton().slots {
			e := &log.Events[s.ev]
			c := &log.comms[e.op]
			w.compute(e.T)
			rec := trace.Record{Peer: c.Peer, Tag: c.Tag, Bytes: int64(c.Elems) * ElemBytes}
			switch e.Kind {
			case EvSend, EvSendRaw:
				rec.Kind = trace.KindSend
			case EvISend:
				rec.Kind = trace.KindISend
			case EvRecv, EvRecvRaw:
				rec.Kind = trace.KindRecv
			case EvIRecvPost:
				rec.Kind = trace.KindIRecv
				rec.Handle = c.Handle
				anyIRecv = true
			case EvRecvWait:
				w.emit(trace.Record{Kind: trace.KindWait, Handle: c.Handle})
				continue
			}
			msgSeq++
			rec.MsgID = msgID(rank, msgSeq)
			w.emit(rec)
		}
		w.compute(log.FinalClock)
		if anyIRecv {
			// Defensive drain should an application have skipped a wait.
			w.emit(trace.Record{Kind: trace.KindWaitAll})
		}
		tr.Ranks[rank].Records = w.records()
	}
	return tr
}

// msgID derives a run-unique logical message id.
func msgID(rank int, seq int64) int64 { return int64(rank)*1_000_000_000 + seq }

// OverlapReal builds the overlapped trace driven by the measured
// production/consumption patterns.
func (r *Run) OverlapReal() *trace.Trace {
	return r.buildOverlap("overlap-real", func(string) bool { return false })
}

// OverlapIdeal builds the overlapped trace with ideal (uniform)
// production/consumption patterns.
func (r *Run) OverlapIdeal() *trace.Trace {
	return r.buildOverlap("overlap-ideal", func(string) bool { return true })
}

// OverlapSelective builds an overlapped trace in which only the named
// buffers get the ideal (uniform) chunk schedule while all others keep
// their measured patterns. Comparing selective traces quantifies which
// buffer's production/consumption pattern limits the overlap — the
// "identify bottlenecks and fix them" workflow of the paper, one buffer at
// a time.
func (r *Run) OverlapSelective(idealBuffers map[string]bool) *trace.Trace {
	return r.buildOverlap("overlap-selective", func(name string) bool { return idealBuffers[name] })
}

// BufferNames returns the names of all tracked buffers that participate in
// communication anywhere in the run, sorted. It reads the per-array marks
// of each log's comm skeleton, not the events.
func (r *Run) BufferNames() []string {
	seen := map[string]bool{}
	for _, log := range r.Logs {
		for a, comm := range log.skeleton().comm {
			if comm {
				seen[log.ArrayNames[a]] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// arrayPlan is the chunk-dependent layout of one array's chunk schedule.
// The schedule is one flat slice in array-major order — the array's sends
// then its receive instances, k chunks each — which is also the order the
// synthetic ops are numbered in, so msgSeq and handle numbering follow
// from the offsets.
type arrayPlan struct {
	n, k   int
	ideal  bool
	off    int   // first schedule entry
	seq    int64 // messages numbered before the array's first
	handle int   // chunk IRecv handles numbered before the array's first
}

// synthOp is a chunk ISend or chunk Wait scheduled at virtual time t; id
// is its schedule entry, which indexes its record and breaks time ties in
// plan order. minEv gates emission: the op may only be emitted once the
// merge walk has processed the original event with that index, which keeps
// a chunk Wait scheduled at exactly its receive's timestamp behind the
// IRecv that defines its handle. ISends carry minEv -1 (no gate).
type synthOp struct {
	t         int64
	minEv, id int
}

// overlapBuilder holds the scratch buffers of one overlap build, reused
// across its ranks.
type overlapBuilder struct {
	cfg      Config
	idealFor func(bufferName string) bool
	plans    []arrayPlan
	ops      []synthOp      // the chunk schedule, in plan order until sorted
	recs     []trace.Record // synthetic record per plan index
	win      []accessWindow // per array, during the access scan
	w        rankWriter
}

func (r *Run) buildOverlap(flavor string, idealFor func(bufferName string) bool) *trace.Trace {
	tr := trace.New(r.Name, flavor, r.NumRanks)
	b := overlapBuilder{cfg: r.Cfg, idealFor: idealFor}
	for rank, log := range r.Logs {
		tr.Ranks[rank].Records = b.rank(rank, log)
	}
	return tr
}

// rank builds one rank's overlapped record stream.
func (b *overlapBuilder) rank(rank int, log *Log) []trace.Record {
	sk := log.skeleton()
	events := log.Events
	scan := b.plan(log, sk)

	// Lay out the schedule in plan order: every chunk starts at its
	// interval bound (real) or at its uniform slot in the burst (ideal).
	b.ops = b.ops[:0]
	b.recs = b.recs[:0]
	schedule := func(t int64, minEv int, rec trace.Record) {
		b.ops = append(b.ops, synthOp{t: t, minEv: minEv, id: len(b.ops)})
		b.recs = append(b.recs, rec)
	}
	for a := range b.plans {
		p := &b.plans[a]
		for j, slot := range sk.sends[a] {
			e := &events[sk.slots[slot].ev]
			cm := &log.comms[e.op]
			id := msgID(rank, p.seq+int64(j)+1) + 500_000 // offset avoids clashing with base ids
			start := int64(0)
			if j > 0 {
				start = events[sk.slots[sk.sends[a][j-1]].ev].T
			}
			if p.ideal {
				start = sk.prevStrict[slot]
			}
			for c := 0; c < p.k; c++ {
				t := start
				if p.ideal {
					t = start + (e.T-start)*int64(c+1)/int64(p.k)
				}
				schedule(t, -1, trace.Record{
					Kind: trace.KindISend, Peer: cm.Peer, Tag: cm.Tag, Chunk: c,
					Bytes: ChunkBytes(p.n, p.k, c), MsgID: id,
				})
			}
		}
		insts := sk.recvs[a]
		for j, inst := range insts {
			postEv := sk.slots[inst.post].ev
			end := log.FinalClock
			if j+1 < len(insts) {
				end = events[sk.slots[insts[j+1].post].ev].T
			}
			waitT := events[sk.slots[inst.wait].ev].T
			if p.ideal {
				end = sk.nextStrict[inst.wait]
			}
			h := p.handle + j*p.k
			for c := 0; c < p.k; c++ {
				t := end
				if p.ideal {
					t = waitT + (end-waitT)*int64(c)/int64(p.k)
				}
				schedule(t, postEv, trace.Record{Kind: trace.KindWait, Handle: h + c + 1})
			}
		}
	}
	if scan {
		b.scanAccesses(log, sk)
	}
	// Order the synthetic ops by time; the plan index breaks ties, so the
	// order equals a stable sort of the plan-ordered ops.
	slices.SortFunc(b.ops, func(x, y synthOp) int {
		if c := cmp.Compare(x.t, y.t); c != 0 {
			return c
		}
		return cmp.Compare(x.id, y.id)
	})

	b.merge(rank, log, sk)
	return b.w.records()
}

// plan lays out the rank's chunk schedule per array and reports whether
// any array needs the measured access pattern (a scan of the log).
func (b *overlapBuilder) plan(log *Log, sk *commSkeleton) (scan bool) {
	b.plans = b.plans[:0]
	off, seq, handle := 0, int64(0), 0
	for a, n := range log.ArrayLens {
		ns, nr := len(sk.sends[a]), len(sk.recvs[a])
		p := arrayPlan{n: n, k: b.cfg.ChunkCount(n), off: off, seq: seq, handle: handle}
		if ns+nr > 0 {
			p.ideal = b.idealFor(log.ArrayNames[a])
			scan = scan || !p.ideal
		}
		b.plans = append(b.plans, p)
		off += (ns + nr) * p.k
		seq += int64(ns + nr)
		handle += nr * p.k
	}
	return scan
}

// accessWindow is one array's open production and consumption windows
// during the access scan: the schedule index of chunk 0 of the send that
// the array's stores feed and of the receive instance whose loads it
// consumes, -1 when there is none (or the array is ideal).
type accessWindow struct {
	chunk        chunkMap
	store, load  int
	loadFrom     int // event index at which the load window opens
	sends, recvs int // sends passed, receive instances posted
}

// chunkMap is ChunkOf(n, k, ·) for one array, with the division by n
// replaced where exact by a multiply-high with its reciprocal: for 32-bit
// x and 2 <= n < 2^32, x/n is the high word of x·(⌊(2^64-1)/n⌋+1)
// (Lemire, Kaser and Kurz, "Faster remainder by direct computation",
// 2019). The dividend (idx+1)·k-1 stays below n·k, so the reciprocal
// applies whenever n·k <= 2^32.
type chunkMap struct {
	n, k  uint64
	recip uint64 // 0: divide
}

func newChunkMap(n, k int) chunkMap {
	m := chunkMap{n: uint64(n), k: uint64(k)}
	if n >= 2 && m.n*m.k <= 1<<32 {
		m.recip = math.MaxUint64/m.n + 1
	}
	return m
}

// of returns the chunk of element idx (0 <= idx < n).
func (m chunkMap) of(idx uint32) int {
	x := (uint64(idx)+1)*m.k - 1
	if m.recip == 0 {
		return int(x / m.n)
	}
	q, _ := bits.Mul64(x, m.recip)
	return int(q)
}

// scanAccesses folds the measured access pattern into the schedule of the
// non-ideal arrays in one forward pass over the log: chunk c of send j
// leaves at its last store after send j-1, chunk c of receive instance j
// is waited at its first load within the instance's consumption window.
// Stores after an array's final send and loads before its first
// receive's window feed no message.
func (b *overlapBuilder) scanAccesses(log *Log, sk *commSkeleton) {
	b.win = b.win[:0]
	for a, p := range b.plans {
		w := accessWindow{chunk: newChunkMap(p.n, p.k), store: -1, load: -1}
		if !p.ideal && len(sk.sends[a]) > 0 {
			w.store = p.off
		}
		b.win = append(b.win, w)
	}
	ops := b.ops
	for i := range log.Events {
		e := &log.Events[i]
		switch e.Kind {
		case EvLoad:
			if w := &b.win[e.arr]; w.load >= 0 && i >= w.loadFrom {
				t := &ops[w.load+w.chunk.of(e.op)].t
				if e.T < *t {
					*t = e.T
				}
			}
		case EvStore:
			if w := &b.win[e.arr]; w.store >= 0 {
				t := &ops[w.store+w.chunk.of(e.op)].t
				if e.T > *t {
					*t = e.T
				}
			}
		case EvSend, EvISend:
			w := &b.win[e.arr]
			w.sends++
			if w.store >= 0 {
				w.store += int(w.chunk.k)
				if w.sends == len(sk.sends[e.arr]) {
					w.store = -1
				}
			}
		case EvRecv, EvIRecvPost:
			w, p := &b.win[e.arr], &b.plans[e.arr]
			if !p.ideal {
				w.load = p.off + (len(sk.sends[e.arr])+w.recvs)*p.k
				w.loadFrom = sk.recvs[e.arr][w.recvs].loadFrom
			}
			w.recvs++
		}
	}
}

// merge walks the rank's comm events, interleaving the time-sorted
// synthetic schedule and splitting compute bursts at every injection
// point.
func (b *overlapBuilder) merge(rank int, log *Log, sk *commSkeleton) {
	w := &b.w
	w.reset()
	next := 0
	// flush emits synthetic ops scheduled strictly before upTo, plus ops
	// at exactly upTo whose gating event (minEv) has been processed. On
	// an equal-time gate the cursor stops — head-of-line order at a
	// single virtual instant is immaterial to the reconstruction.
	flush := func(upTo int64, curEv int) {
		for next < len(b.ops) {
			op := b.ops[next]
			if op.t > upTo || (op.t == upTo && op.minEv > curEv) {
				return
			}
			w.compute(op.t)
			w.emit(b.recs[op.id])
			next++
		}
	}
	var rawSeq int64
	for _, s := range sk.slots {
		i := s.ev
		e := &log.Events[i]
		cm := &log.comms[e.op]
		switch e.Kind {
		case EvSend, EvISend, EvRecvWait:
			// The original send is fully replaced by the already-flushed
			// chunk ISends; the original completion wait dissolves into
			// the per-chunk Waits at the chunks' first use.
			flush(e.T, i)
			w.compute(e.T)
		case EvRecv, EvIRecvPost:
			flush(e.T, i-1)
			w.compute(e.T)
			p := &b.plans[e.arr]
			id := msgID(rank, p.seq+int64(len(sk.sends[e.arr])+s.inst)+1) + 500_000
			h := p.handle + s.inst*p.k
			for c := 0; c < p.k; c++ {
				w.emit(trace.Record{
					Kind: trace.KindIRecv, Peer: cm.Peer, Tag: cm.Tag, Chunk: c,
					Bytes: ChunkBytes(p.n, p.k, c), Handle: h + c + 1, MsgID: id,
				})
			}
			flush(e.T, i)
		case EvSendRaw, EvRecvRaw:
			flush(e.T, i)
			w.compute(e.T)
			rawSeq++
			kind := trace.KindSend
			if e.Kind == EvRecvRaw {
				kind = trace.KindRecv
			}
			w.emit(trace.Record{
				Kind: kind, Peer: cm.Peer, Tag: cm.Tag,
				Bytes: int64(cm.Elems) * ElemBytes,
				MsgID: msgID(rank, rawSeq) + 800_000,
			})
		}
	}
	flush(log.FinalClock, len(log.Events))
	w.compute(log.FinalClock)
	w.emit(trace.Record{Kind: trace.KindWaitAll})
}
