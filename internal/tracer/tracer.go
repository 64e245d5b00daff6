// Package tracer is the Valgrind-equivalent front end of the framework: it
// instruments an application run and produces, from that single run, the
// non-overlapped trace and the two overlapped (real-pattern and
// ideal-pattern) traces described in the paper.
//
// The paper's tool executes each MPI process in a binary-translation VM,
// wrapping every MPI call and intercepting every load and store to
// communicated buffers; time-stamps are executed-instruction counts scaled
// by an average MIPS rate. Our substitute asks the application to express
// the same information directly:
//
//   - Proc.Compute(n) advances the rank's virtual clock by n instructions
//     (the compute bursts Valgrind would have counted);
//   - communicated buffers are tracker-owned Arrays whose Load and Store
//     methods record (virtual time, element) access pairs and charge one
//     instruction per access;
//   - Proc.Send/Proc.Recv transfer whole tracked Arrays through the mpi
//     substrate, and collectives decompose into instrumented raw
//     point-to-point transfers.
//
// A Run therefore holds per-rank event logs carrying exactly the
// information the paper's tracer extracts, and the builders in build.go
// turn those logs into the three Dimemas-style traces.
package tracer

import (
	"fmt"
	"iter"
	"math"
	"sync"

	"repro/internal/mpi"
)

// ElemBytes is the wire size of one tracked element (a float64).
const ElemBytes = 8

// Config tunes the chunking transformation.
type Config struct {
	// Chunks is the number of chunks each tracked message is split into
	// in the overlapped traces (the paper uses 4). Messages with fewer
	// elements than Chunks get one chunk per element; one-element
	// messages are never chunked (the Alya rule).
	Chunks int
}

// DefaultConfig mirrors the paper's setup: four chunks per message.
func DefaultConfig() Config {
	return Config{Chunks: 4}
}

func (c Config) validate() error {
	if c.Chunks <= 0 {
		return fmt.Errorf("tracer: Chunks=%d, must be positive", c.Chunks)
	}
	return nil
}

// EvKind discriminates event-log entries.
type EvKind uint8

// Event kinds recorded in a rank's log.
const (
	// EvSend: a tracked array was sent (blocking at the MPI level).
	EvSend EvKind = iota
	// EvRecv: a tracked array was received.
	EvRecv
	// EvSendRaw / EvRecvRaw: untracked point-to-point transfers
	// (collective internals and scalar control traffic). Never chunked.
	EvSendRaw
	EvRecvRaw
	// EvStore / EvLoad: one tracked element access.
	EvStore
	EvLoad
	// EvCollSend / EvCollRecv mark a tracked array passing through a
	// collective (contribution and result, respectively). They carry no
	// transfer themselves — the collective's raw point-to-point events do
	// — but they delimit production/consumption intervals for the
	// pattern analyzer (how Table II reports Alya).
	EvCollSend
	EvCollRecv
	// EvISend: a tracked array was sent with a non-blocking send.
	EvISend
	// EvIRecvPost / EvRecvWait: a tracked non-blocking receive was
	// posted / waited. Handle links the pair.
	EvIRecvPost
	EvRecvWait
)

// Event is one instrumentation record as a walk of its Log reads it (the
// log stores it packed, see word). T is the rank's virtual time, in
// instructions, when the event occurred. The array id and the 32-bit
// operand are read through Arr and Idx; a comm event's or collective
// marker's operand indexes its Log's side table instead, read through
// Log.Comm.
type Event struct {
	T    int64
	Kind EvKind
	arr  int16  // array id, -1 for raw transfers
	op   uint32 // element index (EvStore/EvLoad), else the Log.comms index
}

// Packed ranges of an Event: array ids in [0, maxArrays), element indices
// in [0, maxElems). NewArray panics beyond them, so Trace fails with an
// error instead of recording truncated values.
const (
	maxArrays = math.MaxInt16 + 1
	maxElems  = math.MaxUint32 + 1
)

// Arr returns the event's array id, -1 for raw transfers.
func (e Event) Arr() int { return int(e.arr) }

// Idx returns the element index of an EvStore or EvLoad event, 0 for
// other kinds.
func (e Event) Idx() int {
	if e.Kind != EvStore && e.Kind != EvLoad {
		return 0
	}
	return int(e.op)
}

// Comm is the side-table entry of one comm event or collective marker.
type Comm struct {
	Peer  int // partner rank, -1 for collective markers
	Tag   int
	Elems int // element count of the transfer or marked buffer
	// Handle pairs EvIRecvPost with its EvRecvWait (rank-local).
	Handle int
}

// word is one 8-byte entry of a packed log. Rank logs are almost all
// loads and stores and a traced run is kept as long as programs may be
// built from it, so an event takes one word:
//
//	bits  0–3   kind
//	bits  4–15  array id + 1
//	bits 16–47  operand
//	bits 48–63  time since the rank's previous event
//
// An event whose time delta or array id + 1 does not fit is preceded, in
// the same block, by an escape word of kind escKind that carries their
// high bits: array id + 1 >> 12 in bits 4–7, and the delta's bits 16–63
// in its own bits 16–63. Since a word holds a delta, not a time, a log
// is read in order (Log.Events).
type word uint64

const (
	kindMask  = 1<<4 - 1
	arrMask   = 1<<12 - 1
	deltaMask = 1<<16 - 1
	escKind   = kindMask // no EvKind uses it
)

// The fields of an event word, and the high bits of the array id and
// the time delta that an escape word adds to the next word's.
func (x word) kind() EvKind    { return EvKind(x & kindMask) }
func (x word) arr() int        { return int(x>>4&arrMask) - 1 }
func (x word) op() uint32      { return uint32(x >> 16) }
func (x word) delta() int64    { return int64(x >> 48) }
func (x word) escArr() int     { return int(x>>4&kindMask) << 12 }
func (x word) escDelta() int64 { return int64(x &^ deltaMask) }

// encoder is the one writer of the packed layout: every Proc records
// through it, and nothing else packs a word. It fills fixed-capacity
// blocks (doubling up to encMaxBlock words) that become the log's
// storage, so recording N events allocates about 8N bytes and only the
// last block is copied, to trim it.
type encoder struct {
	block []word   // the block being filled
	full  [][]word // filled blocks, in order
	n     int      // events recorded
	t     int64    // time of the last event
	comms []Comm
}

const (
	encMinBlock = 1 << 10
	encMaxBlock = 1 << 16
)

// push appends one event; op is its element index or side-table index.
func (w *encoder) push(t int64, kind EvKind, arr int, op uint32) {
	d, a := word(t-w.t), word(arr+1)
	w.t = t
	w.n++
	x := d<<48 | word(op)<<16 | (a&arrMask)<<4 | word(kind)
	if n := len(w.block); d <= deltaMask && a <= arrMask && n < cap(w.block) {
		w.block = w.block[:n+1]
		w.block[n] = x
		return
	}
	w.pushSlow(x, d&^deltaMask|a>>12<<4|escKind)
}

// pushSlow appends word x, preceded by escape word esc unless esc carries
// no high bits, starting a new block when the pair would not fit.
func (w *encoder) pushSlow(x, esc word) {
	if esc == escKind {
		if len(w.block) == cap(w.block) {
			w.spill()
		}
		w.block = append(w.block, x)
		return
	}
	if cap(w.block)-len(w.block) < 2 {
		w.spill()
	}
	w.block = append(w.block, esc, x)
}

// spill retires the block being filled and starts the next, twice as
// large.
func (w *encoder) spill() {
	n := encMinBlock
	if c := cap(w.block); c > 0 {
		w.full = append(w.full, w.block)
		n = min(2*c, encMaxBlock)
	}
	w.block = make([]word, 0, n)
}

// access appends a load or store of element idx of array arr.
func (w *encoder) access(t int64, kind EvKind, arr, idx int) {
	w.push(t, kind, arr, uint32(idx))
}

// comm appends a comm event or collective marker of array arr (-1 for raw
// transfers) with its side-table entry.
func (w *encoder) comm(t int64, kind EvKind, arr int, c Comm) {
	w.push(t, kind, arr, uint32(len(w.comms)))
	w.comms = append(w.comms, c)
}

// log returns everything recorded as a log of the given rank: the filled
// blocks as they are and the last one copied to its exact length.
func (w *encoder) log(rank int, final int64) *Log {
	blocks := w.full
	if len(w.block) > 0 {
		last := make([]word, len(w.block))
		copy(last, w.block)
		blocks = append(blocks, last)
	}
	return &Log{Rank: rank, FinalClock: final, blocks: blocks, n: w.n, comms: w.comms}
}

// Log is the complete event stream of one rank. A Log and its comm
// skeleton (the chunk-independent index the trace builders read, filled
// once per Log) are immutable after Trace; every run variant derived with
// WithChunks shares both.
type Log struct {
	Rank       int
	FinalClock int64
	// ArrayLens maps array id to element count, for analysis.
	ArrayLens []int
	// ArrayNames maps array id to the name given at NewArray.
	ArrayNames []string

	blocks   [][]word // the packed events in order; see word
	n        int      // events
	comms    []Comm   // side table of the comm events and collective markers
	skelOnce sync.Once
	skel     *commSkeleton
}

// Len returns the number of events in the log.
func (l *Log) Len() int { return l.n }

// Events walks the log in order, yielding each event with its index.
func (l *Log) Events() iter.Seq2[int, Event] {
	return func(yield func(int, Event) bool) {
		i, t := 0, int64(0)
		for _, b := range l.blocks {
			for j := 0; j < len(b); i++ {
				x := b[j]
				j++
				var a int
				if x.kind() != escKind {
					t += x.delta()
					a = x.arr()
				} else {
					hi := x
					x = b[j]
					j++
					t += hi.escDelta() + x.delta()
					a = hi.escArr() + x.arr()
				}
				if !yield(i, Event{T: t, Kind: x.kind(), arr: int16(a), op: x.op()}) {
					return
				}
			}
		}
	}
}

// Comm returns the peer, tag, element count and handle recorded with a
// comm event or collective marker of this log; loads and stores carry
// none and return the zero Comm.
func (l *Log) Comm(e Event) Comm {
	if e.Kind == EvStore || e.Kind == EvLoad {
		return Comm{}
	}
	return l.comms[e.op]
}

// Run is the output of tracing one application execution.
//
// A Run is immutable once Trace returns: the trace builders only read the
// event logs, so one Run may back any number of concurrent replays and
// variant builds. Derive re-chunked variants with WithChunks instead of
// mutating Cfg in place — a shallow struct copy
// (`v := *run`) would alias Logs and its event slices, and writing through
// either copy would race with readers of the other.
type Run struct {
	Name     string
	NumRanks int
	Cfg      Config
	Logs     []*Log // indexed by rank; treat as immutable
}

// WithChunks returns a copy-on-write variant of the run whose overlapped
// traces split each message into k chunks: the safe spelling of the
// chunk-count ablation's per-point rebuild. The variant owns its Run
// header and Logs slice (so appends or element writes through one cannot
// reach the other) while the per-rank logs — immutable after Trace — stay
// shared, keeping variant creation O(ranks) instead of O(events).
func (r *Run) WithChunks(k int) *Run {
	v := *r
	v.Cfg.Chunks = k
	v.Logs = append([]*Log(nil), r.Logs...)
	return &v
}

// Proc is the instrumented per-rank endpoint handed to application kernels.
type Proc struct {
	mp       *mpi.Proc
	clock    int64
	enc      encoder
	arrays   []*Array
	seq      int // collective sequence counter
	irecvSeq int // tracked non-blocking receive handles
}

// Trace executes app once per rank under instrumentation and returns the
// collected run.
func Trace(name string, ranks int, cfg Config, app func(p *Proc)) (*Run, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	run := &Run{Name: name, NumRanks: ranks, Cfg: cfg, Logs: make([]*Log, ranks)}
	var mu sync.Mutex
	err := mpi.Run(ranks, func(mp *mpi.Proc) {
		p := &Proc{mp: mp}
		app(p)
		log := p.enc.log(mp.Rank(), p.clock)
		log.ArrayLens = make([]int, len(p.arrays))
		log.ArrayNames = make([]string, len(p.arrays))
		for i, a := range p.arrays {
			log.ArrayLens[i] = len(a.data)
			log.ArrayNames[i] = a.name
		}
		log.skeleton() // index the comm structure while the ranks run in parallel
		mu.Lock()
		run.Logs[mp.Rank()] = log
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	return run, nil
}

// Rank returns the rank id.
func (p *Proc) Rank() int { return p.mp.Rank() }

// Size returns the world size.
func (p *Proc) Size() int { return p.mp.Size() }

// Compute advances the virtual clock by n executed instructions. Negative
// n is ignored.
func (p *Proc) Compute(n int64) {
	if n > 0 {
		p.clock += n
	}
}

// record logs a load or store at the current virtual time.
func (p *Proc) record(kind EvKind, arr, idx int) { p.enc.access(p.clock, kind, arr, idx) }

// recordComm logs a comm event or collective marker at the current
// virtual time.
func (p *Proc) recordComm(kind EvKind, arr int, c Comm) { p.enc.comm(p.clock, kind, arr, c) }

// ---------------------------------------------------------------------------
// Tracked arrays

// Array is a tracked communication buffer. Every Load and Store is recorded
// with its virtual time, exactly the information the paper's tracer
// extracts by intercepting memory accesses.
type Array struct {
	p    *Proc
	id   int
	name string
	data []float64
}

// NewArray allocates a tracked buffer of n elements. It panics when the
// rank's array count or n exceeds what an Event can hold.
func (p *Proc) NewArray(name string, n int) *Array {
	if len(p.arrays) >= maxArrays || int64(n) > maxElems {
		panic(fmt.Sprintf("tracer: array %q (#%d, %d elements) exceeds the event log's range of %d arrays of %d elements",
			name, len(p.arrays), n, maxArrays, int64(maxElems)))
	}
	a := &Array{p: p, id: len(p.arrays), name: name, data: make([]float64, n)}
	p.arrays = append(p.arrays, a)
	return a
}

// Len returns the element count.
func (a *Array) Len() int { return len(a.data) }

// Name returns the name given at creation.
func (a *Array) Name() string { return a.name }

// Load reads element i, recording the access and charging one
// instruction: the work of the instruction stream around the memory
// operation.
func (a *Array) Load(i int) float64 {
	v := a.data[i] // bounds-check before recording
	a.p.clock++
	a.p.record(EvLoad, a.id, i)
	return v
}

// Store writes element i, recording the access and charging one
// instruction, like Load.
func (a *Array) Store(i int, v float64) {
	a.data[i] = v // bounds-check before recording
	a.p.clock++
	a.p.record(EvStore, a.id, i)
}

// ---------------------------------------------------------------------------
// Instrumented communication

// Send transfers the whole tracked array to dst (blocking at the MPI
// level). In the overlapped traces this message is the unit that gets
// chunked. Tracked sends must be received by Recv into a tracked array of
// the same length on the destination rank.
func (p *Proc) Send(dst, tag int, a *Array) {
	p.recordComm(EvSend, a.id, Comm{Peer: dst, Tag: tag, Elems: len(a.data)})
	p.mp.Send(dst, tag, a.data)
}

// Recv receives a tracked array previously sent with Send.
func (p *Proc) Recv(a *Array, src, tag int) {
	p.recordComm(EvRecv, a.id, Comm{Peer: src, Tag: tag, Elems: len(a.data)})
	p.mp.Recv(a.data, src, tag)
}

// Isend transfers the whole tracked array to dst without blocking, the way
// halo-exchange codes post their sends. In the overlapped traces it is
// chunked exactly like a blocking Send. The transport is buffered, so no
// completion wait is needed (double buffering is assumed throughout, as in
// the paper).
func (p *Proc) Isend(dst, tag int, a *Array) {
	p.recordComm(EvISend, a.id, Comm{Peer: dst, Tag: tag, Elems: len(a.data)})
	p.mp.Send(dst, tag, a.data)
}

// RecvReq is an outstanding tracked non-blocking receive.
type RecvReq struct {
	p      *Proc
	req    *mpi.Request
	arr    *Array
	handle int
	waited bool
}

// Irecv posts a tracked non-blocking receive. The returned request must be
// waited exactly once before the buffer is read or reposted.
func (p *Proc) Irecv(a *Array, src, tag int) *RecvReq {
	p.irecvSeq++
	h := p.irecvSeq
	p.recordComm(EvIRecvPost, a.id, Comm{Peer: src, Tag: tag, Elems: len(a.data), Handle: h})
	return &RecvReq{p: p, req: p.mp.Irecv(a.data, src, tag), arr: a, handle: h}
}

// Wait blocks until the receive completed. Waiting twice is a no-op.
func (r *RecvReq) Wait() {
	if r.waited {
		return
	}
	r.waited = true
	r.p.recordComm(EvRecvWait, r.arr.id, Comm{Handle: r.handle})
	r.req.Wait()
}

// SendRaw transfers an untracked buffer: traced as a plain (unchunkable)
// message. Collectives use this path internally.
func (p *Proc) SendRaw(dst, tag int, data []float64) {
	p.recordComm(EvSendRaw, -1, Comm{Peer: dst, Tag: tag, Elems: len(data)})
	p.mp.Send(dst, tag, data)
}

// RecvRaw receives an untracked buffer.
func (p *Proc) RecvRaw(buf []float64, src, tag int) {
	p.recordComm(EvRecvRaw, -1, Comm{Peer: src, Tag: tag, Elems: len(buf)})
	p.mp.Recv(buf, src, tag)
}

// rawAdapter exposes the instrumented raw path as mpi.PointToPoint so the
// mpi collectives decompose into traced transfers.
type rawAdapter struct{ p *Proc }

func (r rawAdapter) Rank() int                         { return r.p.Rank() }
func (r rawAdapter) Size() int                         { return r.p.Size() }
func (r rawAdapter) Send(dst, tag int, data []float64) { r.p.SendRaw(dst, tag, data) }
func (r rawAdapter) Recv(buf []float64, src, tag int)  { r.p.RecvRaw(buf, src, tag) }

var _ mpi.PointToPoint = rawAdapter{}

// nextSeq hands out the rank's collective sequence numbers: an Allreduce
// takes two, one for its reduce and one for its broadcast.
func (p *Proc) nextSeq() int {
	s := p.seq
	p.seq += 2
	return s
}

// Allreduce reduces into out on all ranks through instrumented transfers.
func (p *Proc) Allreduce(buf, out []float64, op mpi.Op) {
	mpi.Allreduce(rawAdapter{p}, buf, out, op, p.nextSeq())
}

// AllreduceTracked performs an Allreduce whose contribution and result
// buffers are tracked arrays. The transfer itself is raw (reduction
// messages cannot be chunked — the Alya case), but EvCollSend/EvCollRecv
// markers delimit the production interval of `in` and the consumption
// interval of `out` for the pattern analyzer.
func (p *Proc) AllreduceTracked(in, out *Array, op mpi.Op) {
	p.recordComm(EvCollSend, in.id, Comm{Peer: -1, Elems: len(in.data)})
	p.recordComm(EvCollRecv, out.id, Comm{Peer: -1, Elems: len(out.data)})
	mpi.Allreduce(rawAdapter{p}, in.data, out.data, op, p.nextSeq())
}

// ---------------------------------------------------------------------------
// Chunk geometry

// ChunkCount returns how many chunks an n-element message splits into under
// this config: never more than n, never more than cfg.Chunks, and
// one-element messages stay whole.
func (c Config) ChunkCount(n int) int {
	if n <= 1 {
		return 1
	}
	if n < c.Chunks {
		return n
	}
	return c.Chunks
}

// ChunkBounds returns the half-open element range [lo, hi) of chunk k out
// of kTotal for an n-element message. Chunks differ in size by at most one
// element.
func ChunkBounds(n, kTotal, k int) (lo, hi int) {
	lo = k * n / kTotal
	hi = (k + 1) * n / kTotal
	return lo, hi
}

// ChunkBytes returns the wire size of chunk k.
func ChunkBytes(n, kTotal, k int) int64 {
	lo, hi := ChunkBounds(n, kTotal, k)
	return int64(hi-lo) * ElemBytes
}

// ChunkOf returns which chunk element idx (0 <= idx < n) belongs to.
func ChunkOf(n, kTotal, idx int) int {
	// Inverse of ChunkBounds: chunk k holds [k*n/kTotal, (k+1)*n/kTotal),
	// so idx lies in the largest k with floor(k*n/kTotal) <= idx, i.e.
	// k*n < (idx+1)*kTotal.
	return ((idx+1)*kTotal - 1) / n
}
