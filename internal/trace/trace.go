// Package trace defines the Dimemas-like trace format that connects the
// tracer (the Valgrind-equivalent front end) to the replay simulator (the
// Dimemas-equivalent back end).
//
// A trace holds, for every rank, an ordered list of records. Records carry
// no absolute timestamps: as in Dimemas, time is reconstructed by the
// simulator from the compute-burst durations and the communication model.
// The tracer encodes "send this chunk as soon as it is produced" simply by
// splitting the producing compute burst and placing an ISend record at the
// split point.
package trace

import (
	"fmt"
	"sort"
)

// Kind identifies the type of a trace record.
type Kind uint8

// Record kinds. They mirror the Dimemas record vocabulary used by the paper:
// computation bursts, blocking and non-blocking point-to-point transfers,
// and wait-for-receive records.
const (
	// KindCompute is a CPU burst measured in executed instructions.
	KindCompute Kind = iota
	// KindSend is a blocking send: the rank resumes once the message has
	// been injected into the network (and, in rendezvous mode, once the
	// matching receive is posted).
	KindSend
	// KindISend is a non-blocking send: the rank resumes immediately.
	KindISend
	// KindRecv is a blocking receive: the rank resumes when the matching
	// message has fully arrived.
	KindRecv
	// KindIRecv posts a non-blocking receive and associates it with Handle.
	KindIRecv
	// KindWait blocks until the IRecv identified by Handle has completed.
	KindWait
	// KindWaitAll blocks until every outstanding IRecv of the rank has
	// completed. The tracer emits one before each reuse of a double
	// buffer and at finalize.
	KindWaitAll
)

// String returns the canonical single-letter mnemonic of the kind.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindISend:
		return "isend"
	case KindRecv:
		return "recv"
	case KindIRecv:
		return "irecv"
	case KindWait:
		return "wait"
	case KindWaitAll:
		return "waitall"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one trace event of one rank.
//
// The zero record is a zero-length compute burst, which the simulator treats
// as a no-op.
type Record struct {
	Kind Kind
	// Instr is the burst length in executed instructions (KindCompute).
	Instr int64
	// Peer is the partner rank (destination for sends, source for
	// receives).
	Peer int
	// Tag is the application-level message tag.
	Tag int
	// Chunk is the chunk index within the logical message. Unchunked
	// messages use chunk 0 of 1. Matching in the simulator is on
	// (source, tag, chunk) in FIFO order, so chunked and unchunked
	// flavours of the same program remain well formed.
	Chunk int
	// Bytes is the transfer size of this record's message or chunk.
	Bytes int64
	// Handle names an outstanding IRecv within the rank. IRecv defines
	// it; Wait references it. Handles are rank-local and unique per
	// trace.
	Handle int
	// MsgID identifies the logical (pre-chunking) message, for
	// visualization and cross-checking. It is not used for matching.
	MsgID int64
}

// RankTrace is the ordered record stream of a single rank.
type RankTrace struct {
	Rank    int
	Records []Record
}

// Trace is a complete multi-rank trace plus identifying metadata.
type Trace struct {
	// Name labels the trace (application and flavour), e.g. "cg/base".
	Name string
	// Flavor is one of "base", "overlap-real", "overlap-ideal".
	Flavor string
	// NumRanks is the number of simulated processes.
	NumRanks int
	// Ranks holds one RankTrace per rank, indexed by rank id.
	Ranks []RankTrace
}

// New returns an empty trace with capacity for n ranks.
func New(name, flavor string, n int) *Trace {
	t := &Trace{Name: name, Flavor: flavor, NumRanks: n, Ranks: make([]RankTrace, n)}
	for r := range t.Ranks {
		t.Ranks[r].Rank = r
	}
	return t
}

// MaxRanks bounds the rank count a decoded trace may declare and the
// processors and nodes of a platform (network.Platform.Validate): an
// untrusted header cannot size a rank or node table beyond it.
const MaxRanks = 1 << 16

// Append adds a record to the given rank's stream.
func (t *Trace) Append(rank int, rec Record) {
	t.Ranks[rank].Records = append(t.Ranks[rank].Records, rec)
}

// Stats aggregates descriptive counters over a trace.
type Stats struct {
	Records       int
	ComputeInstr  int64
	Messages      int   // send-side records (Send + ISend)
	BytesSent     int64 // total bytes over all send-side records
	Recvs         int   // blocking receives
	IRecvs        int
	Waits         int
	WaitAlls      int
	MaxChunkIndex int
}

// Stats scans the trace and returns aggregate counters.
func (t *Trace) Stats() Stats {
	var s Stats
	for r := range t.Ranks {
		for _, rec := range t.Ranks[r].Records {
			s.Records++
			switch rec.Kind {
			case KindCompute:
				s.ComputeInstr += rec.Instr
			case KindSend, KindISend:
				s.Messages++
				s.BytesSent += rec.Bytes
			case KindRecv:
				s.Recvs++
			case KindIRecv:
				s.IRecvs++
			case KindWait:
				s.Waits++
			case KindWaitAll:
				s.WaitAlls++
			}
			if rec.Chunk > s.MaxChunkIndex {
				s.MaxChunkIndex = rec.Chunk
			}
		}
	}
	return s
}

// Validate checks structural well-formedness: peers in range, sizes and
// burst lengths non-negative, handles defined before use and waited at most
// once, and send/receive volumes balanced pairwise. It returns the first
// problem found.
func (t *Trace) Validate() error {
	if t.NumRanks != len(t.Ranks) {
		return fmt.Errorf("trace %q: NumRanks=%d but %d rank streams", t.Name, t.NumRanks, len(t.Ranks))
	}
	type flow struct{ msgs, bytes int64 }
	sent := map[[2]int]flow{}
	recvd := map[[2]int]flow{}
	for r := range t.Ranks {
		if t.Ranks[r].Rank != r {
			return fmt.Errorf("trace %q: rank stream %d labelled %d", t.Name, r, t.Ranks[r].Rank)
		}
		open := map[int]bool{} // handle -> posted and not yet waited
		for i, rec := range t.Ranks[r].Records {
			where := func() string { return fmt.Sprintf("trace %q rank %d record %d (%s)", t.Name, r, i, rec.Kind) }
			switch rec.Kind {
			case KindCompute:
				if rec.Instr < 0 {
					return fmt.Errorf("%s: negative instruction count %d", where(), rec.Instr)
				}
			case KindSend, KindISend, KindRecv, KindIRecv:
				if rec.Peer < 0 || rec.Peer >= t.NumRanks {
					return fmt.Errorf("%s: peer %d out of range [0,%d)", where(), rec.Peer, t.NumRanks)
				}
				if rec.Peer == r {
					return fmt.Errorf("%s: self message", where())
				}
				if rec.Bytes < 0 {
					return fmt.Errorf("%s: negative size %d", where(), rec.Bytes)
				}
				if rec.Chunk < 0 {
					return fmt.Errorf("%s: negative chunk index %d", where(), rec.Chunk)
				}
				switch rec.Kind {
				case KindSend, KindISend:
					f := sent[[2]int{r, rec.Peer}]
					f.msgs++
					f.bytes += rec.Bytes
					sent[[2]int{r, rec.Peer}] = f
				case KindRecv:
					f := recvd[[2]int{rec.Peer, r}]
					f.msgs++
					f.bytes += rec.Bytes
					recvd[[2]int{rec.Peer, r}] = f
				case KindIRecv:
					f := recvd[[2]int{rec.Peer, r}]
					f.msgs++
					f.bytes += rec.Bytes
					recvd[[2]int{rec.Peer, r}] = f
					if open[rec.Handle] {
						return fmt.Errorf("%s: handle %d reposted while outstanding", where(), rec.Handle)
					}
					open[rec.Handle] = true
				}
			case KindWait:
				if !open[rec.Handle] {
					return fmt.Errorf("%s: wait on unknown or already-waited handle %d", where(), rec.Handle)
				}
				delete(open, rec.Handle)
			case KindWaitAll:
				for h := range open {
					delete(open, h)
				}
			default:
				return fmt.Errorf("%s: unknown kind", where())
			}
		}
	}
	// Pairwise flow balance: every (src,dst) pair must send exactly what is
	// received. This catches malformed traces that would deadlock replay.
	for pair, s := range sent {
		r := recvd[pair]
		if s.msgs != r.msgs || s.bytes != r.bytes {
			return fmt.Errorf("trace %q: flow %d->%d unbalanced: sent %d msgs/%d B, received %d msgs/%d B",
				t.Name, pair[0], pair[1], s.msgs, s.bytes, r.msgs, r.bytes)
		}
	}
	for pair, r := range recvd {
		if _, ok := sent[pair]; !ok && r.msgs > 0 {
			return fmt.Errorf("trace %q: flow %d->%d receives %d msgs but no sends", t.Name, pair[0], pair[1], r.msgs)
		}
	}
	return nil
}

// TotalInstructions returns the summed compute-burst length of one rank.
func (t *Trace) TotalInstructions(rank int) int64 {
	var n int64
	for _, rec := range t.Ranks[rank].Records {
		if rec.Kind == KindCompute {
			n += rec.Instr
		}
	}
	return n
}

// PairVolumes returns the per-(src,dst) byte volumes of send-side records,
// sorted by source then destination. Useful for communication-matrix views.
func (t *Trace) PairVolumes() []PairVolume {
	m := map[[2]int]int64{}
	for r := range t.Ranks {
		for _, rec := range t.Ranks[r].Records {
			if rec.Kind == KindSend || rec.Kind == KindISend {
				m[[2]int{r, rec.Peer}] += rec.Bytes
			}
		}
	}
	out := make([]PairVolume, 0, len(m))
	for k, v := range m {
		out = append(out, PairVolume{Src: k[0], Dst: k[1], Bytes: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// PairVolume is the total traffic of one directed rank pair.
type PairVolume struct {
	Src, Dst int
	Bytes    int64
}
