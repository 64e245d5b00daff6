package sim

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Compiled trace programs: a Program is the replay-ready form of a
// trace.Trace, built once and replayed many times. Compilation flattens
// every rank's records into a dense instruction array and resolves all
// matching state ahead of time:
//
//   - each (dst, src, tag, chunk) message stream becomes an integer stream
//     ID, so the per-record map lookups of the old replay loop disappear —
//     the hot loop indexes a slice;
//   - per-stream send and post counts are known up front, so every match
//     buffer (arrivals, matched, posts, pending rendezvous queue) can be
//     carved exactly-sized out of one backing allocation;
//   - rank-local IRecv handles are renumbered densely per rank, so the
//     outstanding-handle table is a slice, not a map;
//   - per-record metadata the replay needs (bytes, instruction counts,
//     peer/tag/chunk for reporting) is precomputed into the instruction.
//
// A Program is immutable after Compile and safe to share between
// concurrent replays; all mutable replay state lives in ReplayArena.

// instr is one compiled trace record. op keeps the trace.Kind vocabulary so
// diagnostics (deadlock reports) can name the original record.
type instr struct {
	op     trace.Kind
	peer   int32
	tag    int32
	chunk  int32
	stream int32 // stream ID for send/isend/recv/irecv, -1 otherwise
	handle int32 // dense per-rank handle ID for irecv/wait, -1 otherwise
	arg    int64 // instruction count (compute) or transfer bytes (comms)
	msgID  int64
}

// streamInfo is the compile-time shape of one (dst, src, tag, chunk)
// message stream.
type streamInfo struct {
	src, dst int32
	sends    int32 // send-side records feeding the stream
	posts    int32 // recv/irecv records posted against the stream
	// bytes totals the stream's sends: with sends, the stream's share of
	// a summary replay's traffic split (see ReplayArena.summary).
	bytes int64
	// sendOff and postOff are prefix offsets into the arena's shared
	// backing arrays, so per-stream state is a zero-alloc subslice.
	sendOff int32
	postOff int32
}

// Program is a compiled trace: the allocation-free replay core executes
// Programs, not Traces. Build one with Compile; a Program may be cached
// (engine.TraceCache memoizes per traced run, the service layer per trace
// digest) and replayed concurrently on any platform with enough
// processors.
type Program struct {
	name     string
	numRanks int
	code     [][]instr
	streams  []streamInfo
	// handles[r] is the number of distinct IRecv handles of rank r; handleOff
	// is the prefix offset into the arena's handle tables. irecvs[r] counts
	// rank r's IRecv records — the worst-case number of handle activations
	// in one replay (a handle may be legally reposted after each Wait), which
	// sizes the arena's active-handle lists; irecvOff is its prefix offset.
	handles   []int32
	handleOff []int32
	irecvs    []int32
	irecvOff  []int32

	totalSends   int
	totalPosts   int
	totalHandles int
	totalIRecvs  int
	records      int
}

// Name returns the compiled trace's name.
func (p *Program) Name() string { return p.name }

// NumRanks returns the number of simulated processes.
func (p *Program) NumRanks() int { return p.numRanks }

// Records returns the total record count over all ranks.
func (p *Program) Records() int { return p.records }

// streamKey identifies a message stream during compilation only; the
// replay loop never touches it.
type streamKey struct {
	dst, src, tag, chunk int32
}

func (k streamKey) less(o streamKey) bool {
	if k.dst != o.dst {
		return k.dst < o.dst
	}
	if k.src != o.src {
		return k.src < o.src
	}
	if k.tag != o.tag {
		return k.tag < o.tag
	}
	return k.chunk < o.chunk
}

// streamRef ties one send/recv instruction to its stream key. Compile
// collects one per matching record, sorts the batch, and resolves stream
// IDs group-by-group — replacing the per-record hash-map inserts of the
// first compiler, whose hashing dominated compile time on large traces.
type streamRef struct {
	key  streamKey
	r, i int32 // instruction location: p.code[r][i]
}

// Compile flattens tr into its replay program. It fails on a nil trace and
// on structurally unusable records (peers out of range, rank streams
// missing) — conditions trace.Validate would also reject but that the old
// replay core only caught by panicking mid-replay.
func Compile(tr *trace.Trace) (*Program, error) {
	if tr == nil {
		return nil, ErrNilTrace
	}
	if len(tr.Ranks) < tr.NumRanks {
		return nil, fmt.Errorf("sim: compile %q: NumRanks=%d but only %d rank streams", tr.Name, tr.NumRanks, len(tr.Ranks))
	}
	p := &Program{
		name:      tr.Name,
		numRanks:  tr.NumRanks,
		code:      make([][]instr, tr.NumRanks),
		handles:   make([]int32, tr.NumRanks),
		handleOff: make([]int32, tr.NumRanks),
		irecvs:    make([]int32, tr.NumRanks),
		irecvOff:  make([]int32, tr.NumRanks),
	}
	var refs []streamRef
	for r := 0; r < tr.NumRanks; r++ {
		recs := tr.Ranks[r].Records
		code := make([]instr, len(recs))
		p.records += len(recs)
		handleIDs := make(map[int]int32)
		for i := range recs {
			rec := &recs[i]
			in := instr{
				op:     rec.Kind,
				peer:   int32(rec.Peer),
				tag:    int32(rec.Tag),
				chunk:  int32(rec.Chunk),
				stream: -1,
				handle: -1,
				msgID:  rec.MsgID,
			}
			switch rec.Kind {
			case trace.KindCompute:
				in.arg = rec.Instr
			case trace.KindSend, trace.KindISend, trace.KindRecv, trace.KindIRecv:
				if rec.Peer < 0 || rec.Peer >= tr.NumRanks {
					return nil, fmt.Errorf("sim: compile %q: rank %d record %d (%s): peer %d out of range [0,%d)",
						tr.Name, r, i, rec.Kind, rec.Peer, tr.NumRanks)
				}
				in.arg = rec.Bytes
				// Stream IDs resolve after the scan, from the sorted refs.
				switch rec.Kind {
				case trace.KindSend, trace.KindISend:
					refs = append(refs, streamRef{
						key: streamKey{dst: in.peer, src: int32(r), tag: in.tag, chunk: in.chunk},
						r:   int32(r), i: int32(i),
					})
					p.totalSends++
				default: // KindRecv, KindIRecv
					refs = append(refs, streamRef{
						key: streamKey{dst: int32(r), src: in.peer, tag: in.tag, chunk: in.chunk},
						r:   int32(r), i: int32(i),
					})
					p.totalPosts++
					if rec.Kind == trace.KindIRecv {
						in.handle = handleForCompile(handleIDs, rec.Handle)
						p.irecvs[r]++
					}
				}
			case trace.KindWait:
				// A wait on a handle no IRecv defined compiles to handle -1;
				// the replay skips it, matching the old defensive branch.
				if id, ok := handleIDs[rec.Handle]; ok {
					in.handle = id
				}
			}
			code[i] = in
		}
		p.code[r] = code
		p.handles[r] = int32(len(handleIDs))
	}
	p.resolveStreams(refs)
	// Prefix offsets: every stream's match buffers and every rank's handle
	// table become exact subslices of one arena backing array.
	var sendOff, postOff int32
	for i := range p.streams {
		p.streams[i].sendOff = sendOff
		p.streams[i].postOff = postOff
		sendOff += p.streams[i].sends
		postOff += p.streams[i].posts
	}
	var hOff, irOff int32
	for r := range p.handles {
		p.handleOff[r] = hOff
		hOff += p.handles[r]
		p.irecvOff[r] = irOff
		irOff += p.irecvs[r]
	}
	p.totalHandles = int(hOff)
	p.totalIRecvs = int(irOff)
	return p, nil
}

// resolveStreams assigns stream IDs from the collected refs by sorting
// instead of hashing. Refs sort by key with the instruction location as
// tie-break, so equal keys form runs whose first element is the key's
// first appearance in rank-major record order; numbering runs by that
// first appearance reproduces the ID order of the original map-based
// resolver exactly — stream IDs are tie-breaks in the replay's event
// order (eventBefore) and define the Result.Comms grouping, so the
// assignment order is part of the replay's observable contract.
func (p *Program) resolveStreams(refs []streamRef) {
	sort.Slice(refs, func(a, b int) bool {
		x, y := &refs[a], &refs[b]
		if x.key != y.key {
			return x.key.less(y.key)
		}
		if x.r != y.r {
			return x.r < y.r
		}
		return x.i < y.i
	})
	// First pass over runs: one streamInfo per distinct key, IDs in
	// key-sorted order for now.
	type run struct {
		start, end int32 // refs[start:end] share one key
		id         int32
	}
	var runs []run
	for i := 0; i < len(refs); {
		j := i + 1
		for j < len(refs) && refs[j].key == refs[i].key {
			j++
		}
		runs = append(runs, run{start: int32(i), end: int32(j)})
		i = j
	}
	// Renumber runs by first appearance (the run's first ref is its
	// earliest instruction, thanks to the location tie-break).
	order := make([]int32, len(runs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := &refs[runs[order[a]].start], &refs[runs[order[b]].start]
		if x.r != y.r {
			return x.r < y.r
		}
		return x.i < y.i
	})
	p.streams = make([]streamInfo, len(runs))
	for id, ri := range order {
		runs[ri].id = int32(id)
		k := refs[runs[ri].start].key
		p.streams[id] = streamInfo{src: k.src, dst: k.dst}
	}
	// Stamp every instruction and count the per-stream sends/posts.
	for _, rn := range runs {
		si := &p.streams[rn.id]
		for _, ref := range refs[rn.start:rn.end] {
			in := &p.code[ref.r][ref.i]
			in.stream = rn.id
			switch in.op {
			case trace.KindSend, trace.KindISend:
				si.sends++
				si.bytes += in.arg
			default:
				si.posts++
			}
		}
	}
}

// handleForCompile returns the dense ID of a rank-local handle, assigning
// the next one on first sight.
func handleForCompile(ids map[int]int32, handle int) int32 {
	if id, ok := ids[handle]; ok {
		return id
	}
	id := int32(len(ids))
	ids[handle] = id
	return id
}
