package tracer

import (
	"sort"

	"repro/internal/trace"
)

// This file keeps the previous two-pass trace builder as a test oracle:
// the production builders in build.go must reproduce its output byte for
// byte (build_equiv_test.go, build_edge_test.go). The bodies below are
// the old builder and its ChunkOf verbatim, with only the names changed,
// event fields read through the Event's accessors and Log.Comm, and
// each log read through its walk (the overlap oracle collects the walk
// into a slice it indexes).

// refChunkOf is the oracle's ChunkOf.
func refChunkOf(n, kTotal, idx int) int {
	// Inverse of ChunkBounds: chunk k holds [k*n/kTotal, (k+1)*n/kTotal).
	k := (idx*kTotal + kTotal - 1) / n
	for k > 0 && idx < k*n/kTotal {
		k--
	}
	for (k+1)*n/kTotal <= idx {
		k++
	}
	return k
}

// RefBaseTrace is the oracle for BaseTrace.
func (r *Run) RefBaseTrace() *trace.Trace {
	tr := trace.New(r.Name, "base", r.NumRanks)
	for rank, log := range r.Logs {
		var lastT int64
		var msgSeq int64
		emitCompute := func(to int64) {
			if to > lastT {
				tr.Append(rank, trace.Record{Kind: trace.KindCompute, Instr: to - lastT})
				lastT = to
			}
		}
		anyIRecv := false
		for _, e := range log.Events() {
			switch e.Kind {
			case EvSend, EvSendRaw:
				emitCompute(e.T)
				msgSeq++
				tr.Append(rank, trace.Record{
					Kind: trace.KindSend, Peer: log.Comm(e).Peer, Tag: log.Comm(e).Tag,
					Bytes: int64(log.Comm(e).Elems) * ElemBytes,
					MsgID: msgID(rank, msgSeq),
				})
			case EvISend:
				emitCompute(e.T)
				msgSeq++
				tr.Append(rank, trace.Record{
					Kind: trace.KindISend, Peer: log.Comm(e).Peer, Tag: log.Comm(e).Tag,
					Bytes: int64(log.Comm(e).Elems) * ElemBytes,
					MsgID: msgID(rank, msgSeq),
				})
			case EvRecv, EvRecvRaw:
				emitCompute(e.T)
				msgSeq++
				tr.Append(rank, trace.Record{
					Kind: trace.KindRecv, Peer: log.Comm(e).Peer, Tag: log.Comm(e).Tag,
					Bytes: int64(log.Comm(e).Elems) * ElemBytes,
					MsgID: msgID(rank, msgSeq),
				})
			case EvIRecvPost:
				emitCompute(e.T)
				msgSeq++
				anyIRecv = true
				tr.Append(rank, trace.Record{
					Kind: trace.KindIRecv, Peer: log.Comm(e).Peer, Tag: log.Comm(e).Tag,
					Bytes:  int64(log.Comm(e).Elems) * ElemBytes,
					Handle: log.Comm(e).Handle, MsgID: msgID(rank, msgSeq),
				})
			case EvRecvWait:
				emitCompute(e.T)
				tr.Append(rank, trace.Record{Kind: trace.KindWait, Handle: log.Comm(e).Handle})
			}
		}
		emitCompute(log.FinalClock)
		if anyIRecv {
			// Defensive drain should an application have skipped a wait.
			tr.Append(rank, trace.Record{Kind: trace.KindWaitAll})
		}
	}
	return tr
}

// refSynthOp is a chunk ISend or chunk Wait scheduled at virtual time t.
// minEv gates emission: the op may only be emitted once the merge walk has
// processed the original event with that index, which keeps a chunk Wait
// scheduled at exactly its receive's timestamp behind the IRecv that
// defines its handle. ISends carry minEv -1 (no gate).
type refSynthOp struct {
	t     int64
	minEv int
	rec   trace.Record
}

// refIrecvSpec is one chunk IRecv to insert at a replaced receive event.
type refIrecvSpec struct {
	rec trace.Record
}

// RefBufferNames is the oracle for BufferNames: the names of the tracked
// arrays any event of the run communicates, found by scanning every
// event, sorted.
func (r *Run) RefBufferNames() []string {
	seen := map[string]bool{}
	for _, log := range r.Logs {
		for _, e := range log.Events() {
			switch e.Kind {
			case EvSend, EvISend, EvRecv, EvIRecvPost, EvCollSend, EvCollRecv:
				if a := e.Arr(); a >= 0 && a < len(log.ArrayNames) {
					seen[log.ArrayNames[a]] = true
				}
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

// RefOverlap is the oracle for OverlapReal, OverlapIdeal and
// OverlapSelective: flavor names the trace, idealFor picks the buffers
// that get the uniform chunk schedule.
func (r *Run) RefOverlap(flavor string, idealFor func(bufferName string) bool) *trace.Trace {
	tr := trace.New(r.Name, flavor, r.NumRanks)
	for rank, log := range r.Logs {
		r.refBuildRankOverlap(tr, rank, log, idealFor)
	}
	return tr
}

func (r *Run) refBuildRankOverlap(tr *trace.Trace, rank int, log *Log, idealFor func(string) bool) {
	events := eventsOf(log)

	// Pass 0: index per-array send/receive event positions, per-array
	// access lists, and the positions of all comm events (for the ideal
	// variant's burst boundaries).
	type access struct {
		evIdx int
		t     int64
		idx   int
	}
	nArr := len(log.ArrayLens)
	// A receive instance pairs the posting event with the event at which
	// the data became available on the rank: for blocking receives both
	// are the EvRecv itself, for non-blocking ones the EvIRecvPost and
	// its EvRecvWait.
	type recvInst struct {
		postIdx, waitIdx int
	}
	sendsOf := make([][]int, nArr) // EvSend/EvISend event indices per array
	recvsOf := make([][]recvInst, nArr)
	storesOf := make([][]access, nArr)
	loadsOf := make([][]access, nArr)
	pendingWait := map[int]int{} // tracked irecv handle -> recvsOf position (by array)
	pendingArr := map[int]int{}  // tracked irecv handle -> array id
	var commTimes []int64        // times of all comm events in program order
	commIdxBefore := make([]int, len(events))
	for i, e := range events {
		commIdxBefore[i] = len(commTimes)
		switch e.Kind {
		case EvSend, EvISend:
			sendsOf[e.Arr()] = append(sendsOf[e.Arr()], i)
			commTimes = append(commTimes, e.T)
		case EvRecv:
			recvsOf[e.Arr()] = append(recvsOf[e.Arr()], recvInst{postIdx: i, waitIdx: i})
			commTimes = append(commTimes, e.T)
		case EvIRecvPost:
			recvsOf[e.Arr()] = append(recvsOf[e.Arr()], recvInst{postIdx: i, waitIdx: i})
			pendingWait[log.Comm(e).Handle] = len(recvsOf[e.Arr()]) - 1
			pendingArr[log.Comm(e).Handle] = e.Arr()
			commTimes = append(commTimes, e.T)
		case EvRecvWait:
			if pos, ok := pendingWait[log.Comm(e).Handle]; ok {
				recvsOf[pendingArr[log.Comm(e).Handle]][pos].waitIdx = i
				delete(pendingWait, log.Comm(e).Handle)
				delete(pendingArr, log.Comm(e).Handle)
			}
			commTimes = append(commTimes, e.T)
		case EvSendRaw, EvRecvRaw:
			commTimes = append(commTimes, e.T)
		case EvStore:
			storesOf[e.Arr()] = append(storesOf[e.Arr()], access{evIdx: i, t: e.T, idx: e.Idx()})
		case EvLoad:
			loadsOf[e.Arr()] = append(loadsOf[e.Arr()], access{evIdx: i, t: e.T, idx: e.Idx()})
		}
	}
	// Burst boundaries for the ideal variant: the producing/consuming
	// computation burst is delimited by the nearest comm events at a
	// *strictly different* time. Consecutive comm events at the same
	// virtual instant (a halo-exchange phase, a collective's internal
	// steps) belong to one communication phase and must not collapse the
	// burst to zero length. Precomputed in O(n).
	prevStrict := make([]int64, len(commTimes))
	nextStrict := make([]int64, len(commTimes))
	for k := range commTimes {
		if k == 0 {
			prevStrict[k] = 0
		} else if commTimes[k-1] < commTimes[k] {
			prevStrict[k] = commTimes[k-1]
		} else {
			prevStrict[k] = prevStrict[k-1]
		}
	}
	for k := len(commTimes) - 1; k >= 0; k-- {
		if k == len(commTimes)-1 {
			nextStrict[k] = log.FinalClock
		} else if commTimes[k+1] > commTimes[k] {
			nextStrict[k] = commTimes[k+1]
		} else {
			nextStrict[k] = nextStrict[k+1]
		}
	}
	prevCommTime := func(evIdx int) int64 {
		// The comm event at evIdx occupies slot commIdxBefore[evIdx].
		return prevStrict[commIdxBefore[evIdx]]
	}
	nextCommTime := func(evIdx int) int64 {
		return nextStrict[commIdxBefore[evIdx]]
	}

	// Pass 1: plan synthetic chunk ISends and Waits, plus the IRecv
	// inserts at each replaced receive.
	var synth []refSynthOp
	irecvAt := map[int][]refIrecvSpec{} // original event index -> chunk irecvs
	handleCounter := 0
	var msgSeq int64

	for a := 0; a < nArr; a++ {
		n := log.ArrayLens[a]
		k := r.Cfg.ChunkCount(n)
		ideal := idealFor(log.ArrayNames[a])

		// Sends: chunk c leaves at its last update (real) or uniformly
		// through the producing burst (ideal).
		si := 0 // cursor into storesOf[a]
		for j, evIdx := range sendsOf[a] {
			e := events[evIdx]
			msgSeq++
			id := msgID(rank, msgSeq) + 500_000 // offset avoids clashing with base ids
			prevSendIdx := -1
			if j > 0 {
				prevSendIdx = sendsOf[a][j-1]
			}
			last := make([]int64, k)
			intervalStart := int64(0)
			if j > 0 {
				intervalStart = events[prevSendIdx].T
			}
			for c := range last {
				last[c] = intervalStart
			}
			for si < len(storesOf[a]) && storesOf[a][si].evIdx < evIdx {
				acc := storesOf[a][si]
				si++
				if acc.evIdx <= prevSendIdx {
					continue
				}
				c := refChunkOf(n, k, acc.idx)
				if acc.t > last[c] {
					last[c] = acc.t
				}
			}
			if ideal {
				burstStart := prevCommTime(evIdx)
				for c := 0; c < k; c++ {
					last[c] = burstStart + (e.T-burstStart)*int64(c+1)/int64(k)
				}
			}
			for c := 0; c < k; c++ {
				synth = append(synth, refSynthOp{
					t:     last[c],
					minEv: -1,
					rec: trace.Record{
						Kind: trace.KindISend, Peer: log.Comm(e).Peer, Tag: log.Comm(e).Tag, Chunk: c,
						Bytes: ChunkBytes(n, k, c), MsgID: id,
					},
				})
			}
		}

		// Receives: chunk IRecvs post where the original receive was
		// posted; chunk c's Wait sits at its first load (real) or
		// uniformly across the consuming burst (ideal); chunks never
		// loaded drain at the end of the consumption interval.
		li := 0 // cursor into loadsOf[a]
		for j, inst := range recvsOf[a] {
			post := events[inst.postIdx]
			waitT := events[inst.waitIdx].T
			msgSeq++
			id := msgID(rank, msgSeq) + 500_000
			nextPostIdx := len(events)
			intervalEnd := log.FinalClock
			if j+1 < len(recvsOf[a]) {
				nextPostIdx = recvsOf[a][j+1].postIdx
				intervalEnd = events[nextPostIdx].T
			}
			first := make([]int64, k)
			for c := range first {
				first[c] = intervalEnd
			}
			for li < len(loadsOf[a]) && loadsOf[a][li].evIdx < inst.waitIdx {
				li++ // loads before this receive belong to the previous interval
			}
			for li < len(loadsOf[a]) && loadsOf[a][li].evIdx < nextPostIdx {
				acc := loadsOf[a][li]
				li++
				c := refChunkOf(n, k, acc.idx)
				if acc.t < first[c] {
					first[c] = acc.t
				}
			}
			if ideal {
				burstEnd := nextCommTime(inst.waitIdx)
				for c := 0; c < k; c++ {
					first[c] = waitT + (burstEnd-waitT)*int64(c)/int64(k)
				}
			}
			specs := make([]refIrecvSpec, k)
			for c := 0; c < k; c++ {
				handleCounter++
				h := handleCounter
				specs[c] = refIrecvSpec{rec: trace.Record{
					Kind: trace.KindIRecv, Peer: log.Comm(post).Peer, Tag: log.Comm(post).Tag, Chunk: c,
					Bytes: ChunkBytes(n, k, c), Handle: h, MsgID: id,
				}}
				synth = append(synth, refSynthOp{
					t:     first[c],
					minEv: inst.postIdx,
					rec:   trace.Record{Kind: trace.KindWait, Handle: h},
				})
			}
			irecvAt[inst.postIdx] = specs
		}
	}
	sort.SliceStable(synth, func(i, j int) bool { return synth[i].t < synth[j].t })

	// Pass 2: merge the original comm events with the synthetic schedule,
	// splitting compute bursts at every injection point.
	var lastT int64
	var rawSeq int64
	emitCompute := func(to int64) {
		if to > lastT {
			tr.Append(rank, trace.Record{Kind: trace.KindCompute, Instr: to - lastT})
			lastT = to
		}
	}
	si := 0
	// flush emits synthetic ops scheduled strictly before upTo, plus ops
	// at exactly upTo whose gating event (minEv) has been processed. On
	// an equal-time gate the cursor stops — head-of-line order at a
	// single virtual instant is immaterial to the reconstruction.
	flush := func(upTo int64, curEv int) {
		for si < len(synth) && (synth[si].t < upTo || (synth[si].t == upTo && synth[si].minEv <= curEv)) {
			emitCompute(synth[si].t)
			tr.Append(rank, synth[si].rec)
			si++
		}
	}
	for i, e := range events {
		switch e.Kind {
		case EvSend, EvISend:
			flush(e.T, i)
			emitCompute(e.T)
			// The original send is fully replaced by the already-flushed
			// chunk ISends.
		case EvRecvWait:
			flush(e.T, i)
			emitCompute(e.T)
			// The original completion wait dissolves into the per-chunk
			// Waits at the chunks' first use.
		case EvRecv, EvIRecvPost:
			flush(e.T, i-1)
			emitCompute(e.T)
			for _, spec := range irecvAt[i] {
				tr.Append(rank, spec.rec)
			}
			flush(e.T, i)
		case EvSendRaw:
			flush(e.T, i)
			emitCompute(e.T)
			rawSeq++
			tr.Append(rank, trace.Record{
				Kind: trace.KindSend, Peer: log.Comm(e).Peer, Tag: log.Comm(e).Tag,
				Bytes: int64(log.Comm(e).Elems) * ElemBytes,
				MsgID: msgID(rank, rawSeq) + 800_000,
			})
		case EvRecvRaw:
			flush(e.T, i)
			emitCompute(e.T)
			rawSeq++
			tr.Append(rank, trace.Record{
				Kind: trace.KindRecv, Peer: log.Comm(e).Peer, Tag: log.Comm(e).Tag,
				Bytes: int64(log.Comm(e).Elems) * ElemBytes,
				MsgID: msgID(rank, rawSeq) + 800_000,
			})
		}
	}
	flush(log.FinalClock, len(events))
	emitCompute(log.FinalClock)
	tr.Append(rank, trace.Record{Kind: trace.KindWaitAll})
}
