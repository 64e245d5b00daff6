package tracer

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/mpi"
)

// TestEventIsDense pins the packed layout: rank logs are almost all
// loads and stores, and every byte of a log is kept as long as its run
// and streamed by each walk, so an event takes one 8-byte word.
func TestEventIsDense(t *testing.T) {
	if got := unsafe.Sizeof(word(0)); got != 8 {
		t.Fatalf("sizeof(word) = %d, want 8", got)
	}
}

// eventsOf collects a log's events through its walk.
func eventsOf(l *Log) []Event {
	out := make([]Event, 0, l.Len())
	for _, e := range l.Events() {
		out = append(out, e)
	}
	return out
}

// PackedBytes returns the bytes a log's packed blocks hold, escape words
// and unused capacity included.
func (l *Log) PackedBytes() int {
	n := 0
	for _, b := range l.blocks {
		n += cap(b) * int(unsafe.Sizeof(word(0)))
	}
	return n
}

// TestEncoderPacksFullRange: the largest array id and element index an
// Event holds read back unchanged, and raw transfers keep array id -1.
func TestEncoderPacksFullRange(t *testing.T) {
	var enc encoder
	enc.access(1, EvLoad, maxArrays-1, maxElems-1)
	enc.access(2, EvStore, 0, 0)
	enc.comm(3, EvSendRaw, -1, Comm{Peer: 5, Tag: 6, Elems: 7})
	log := enc.log(0, 3)
	evs := eventsOf(log)
	if e := evs[0]; e.Arr() != maxArrays-1 || e.Idx() != maxElems-1 || e.T != 1 {
		t.Errorf("max load reads back as arr=%d idx=%d t=%d", e.Arr(), e.Idx(), e.T)
	}
	if e := evs[1]; e.Arr() != 0 || e.Idx() != 0 || log.Comm(e) != (Comm{}) {
		t.Errorf("zero store reads back as arr=%d idx=%d comm=%+v", e.Arr(), e.Idx(), log.Comm(e))
	}
	if e := evs[2]; e.Arr() != -1 || e.Idx() != 0 || log.Comm(e) != (Comm{Peer: 5, Tag: 6, Elems: 7}) {
		t.Errorf("raw send reads back as arr=%d idx=%d comm=%+v", e.Arr(), e.Idx(), log.Comm(e))
	}
}

// TestPackedRoundTrip: every field of every event the encoder writes
// reads back through the walk — time deltas of 0 and 1, the largest that
// fits a word, the smallest that escapes and one past 2^40; array ids -1,
// 0, the largest that fits a word, the smallest that escapes and
// maxArrays-1; element index maxElems-1; comm events with their
// side-table entries — including an escaped event that would straddle a
// block boundary.
func TestPackedRoundTrip(t *testing.T) {
	type rec struct {
		e Event
		c Comm
	}
	var want []rec
	var enc encoder
	var clock int64
	add := func(delta int64, kind EvKind, arr, op int, c Comm) {
		clock += delta
		e := Event{T: clock, Kind: kind, arr: int16(arr)}
		if kind == EvLoad || kind == EvStore {
			e.op = uint32(op)
			enc.access(clock, kind, arr, op)
		} else {
			e.op = uint32(len(enc.comms))
			enc.comm(clock, kind, arr, c)
		}
		want = append(want, rec{e, c})
	}
	for _, d := range []int64{0, 1, deltaMask, deltaMask + 1, 1<<40 + 12345} {
		for _, arr := range []int{0, arrMask - 1, arrMask, maxArrays - 1} {
			add(d, EvStore, arr, maxElems-1, Comm{})
			add(d, EvLoad, arr, 0, Comm{})
		}
		add(d, EvSendRaw, -1, 0, Comm{Peer: 3, Tag: 4, Elems: 5})
		add(d, EvIRecvPost, maxArrays-1, 0, Comm{Peer: 1, Tag: 2, Elems: 1 << 20, Handle: 9})
		add(d, EvRecvWait, 2, 0, Comm{Handle: 9})
		add(d, EvCollSend, arrMask, 0, Comm{Peer: -1, Elems: 7})
	}
	// Fill the first block up to its last word, then write an escaped
	// event: its two words must move to the next block together.
	for len(enc.full) == 0 && len(enc.block) < cap(enc.block)-1 {
		add(1, EvLoad, 1, 2, Comm{})
	}
	add(deltaMask+1, EvStore, maxArrays-1, 7, Comm{})
	add(0, EvSend, 0, 0, Comm{Peer: 2, Tag: 1, Elems: 3})

	log := enc.log(0, clock)
	if log.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", log.Len(), len(want))
	}
	n := 0
	for i, e := range log.Events() {
		if i != n {
			t.Fatalf("walk yields index %d at event %d", i, n)
		}
		if e != want[i].e || log.Comm(e) != want[i].c {
			t.Fatalf("event %d reads back as %+v %+v, want %+v %+v", i, e, log.Comm(e), want[i].e, want[i].c)
		}
		n++
	}
	if n != len(want) {
		t.Fatalf("walk yields %d events, want %d", n, len(want))
	}
	if len(log.blocks) < 2 {
		t.Fatalf("%d blocks, want the escaped event in a second block", len(log.blocks))
	}
	if last := log.blocks[len(log.blocks)-1]; len(last) != cap(last) {
		t.Errorf("last block holds %d of %d words, want it trimmed", len(last), cap(last))
	}
}

// TestPackedRangeOverflowFailsTrace: an array id or element count beyond
// what an Event holds fails the trace instead of truncating.
func TestPackedRangeOverflowFailsTrace(t *testing.T) {
	run, err := Trace("max-arrays", 1, DefaultConfig(), func(p *Proc) {
		var a *Array
		for i := 0; i < maxArrays; i++ {
			a = p.NewArray("a", 1)
		}
		a.Store(0, 1)
	})
	if err != nil {
		t.Fatalf("%d arrays: %v", maxArrays, err)
	}
	if e := eventsOf(run.Logs[0])[0]; e.Arr() != maxArrays-1 {
		t.Fatalf("last array id reads back as %d, want %d", e.Arr(), maxArrays-1)
	}
	for name, app := range map[string]func(p *Proc){
		"too many arrays": func(p *Proc) {
			for i := 0; i <= maxArrays; i++ {
				p.NewArray("a", 1)
			}
		},
		"too many elements": func(p *Proc) { p.NewArray("huge", maxElems+1) },
	} {
		if _, err := Trace(name, 1, DefaultConfig(), app); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: err = %v, want the packed-range error", name, err)
		}
	}
}

// recorded is one comm event or collective marker as read back from a log.
type recorded struct {
	kind EvKind
	arr  int
	c    Comm
}

// TestCommDetailsReadBack: every comm event and collective marker reads
// back its peer, tag, element count and handle exactly as recorded, and
// loads and stores carry none.
func TestCommDetailsReadBack(t *testing.T) {
	run, err := Trace("comm", 2, DefaultConfig(), func(p *Proc) {
		a, b := p.NewArray("a", 5), p.NewArray("b", 3)
		in, out := p.NewArray("in", 1), p.NewArray("out", 1)
		in.Store(0, 1)
		if p.Rank() == 0 {
			p.Send(1, 7, a)
			p.Isend(1, 8, b)
			p.Isend(1, 12, b)
			req := p.Irecv(a, 1, 9)
			req.Wait()
			_ = a.Load(4)
			p.SendRaw(1, 10, make([]float64, 2))
			p.RecvRaw(make([]float64, 4), 1, 11)
		} else {
			p.Recv(a, 0, 7)
			p.Recv(b, 0, 8)
			p.Irecv(b, 0, 12).Wait()
			p.Isend(0, 9, a)
			p.RecvRaw(make([]float64, 2), 0, 10)
			p.SendRaw(0, 11, make([]float64, 4))
		}
		p.AllreduceTracked(in, out, mpi.OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]recorded{
		{
			{EvSend, 0, Comm{Peer: 1, Tag: 7, Elems: 5}},
			{EvISend, 1, Comm{Peer: 1, Tag: 8, Elems: 3}},
			{EvISend, 1, Comm{Peer: 1, Tag: 12, Elems: 3}},
			{EvIRecvPost, 0, Comm{Peer: 1, Tag: 9, Elems: 5, Handle: 1}},
			{EvRecvWait, 0, Comm{Handle: 1}},
			{EvSendRaw, -1, Comm{Peer: 1, Tag: 10, Elems: 2}},
			{EvRecvRaw, -1, Comm{Peer: 1, Tag: 11, Elems: 4}},
			{EvCollSend, 2, Comm{Peer: -1, Elems: 1}},
			{EvCollRecv, 3, Comm{Peer: -1, Elems: 1}},
		},
		{
			{EvRecv, 0, Comm{Peer: 0, Tag: 7, Elems: 5}},
			{EvRecv, 1, Comm{Peer: 0, Tag: 8, Elems: 3}},
			{EvIRecvPost, 1, Comm{Peer: 0, Tag: 12, Elems: 3, Handle: 1}},
			{EvRecvWait, 1, Comm{Handle: 1}},
			{EvISend, 0, Comm{Peer: 0, Tag: 9, Elems: 5}},
			{EvRecvRaw, -1, Comm{Peer: 0, Tag: 10, Elems: 2}},
			{EvSendRaw, -1, Comm{Peer: 0, Tag: 11, Elems: 4}},
			{EvCollSend, 2, Comm{Peer: -1, Elems: 1}},
			{EvCollRecv, 3, Comm{Peer: -1, Elems: 1}},
		},
	}
	for rank, log := range run.Logs {
		var got []recorded
		accesses := 0
		for _, e := range log.Events() {
			switch e.Kind {
			case EvLoad, EvStore:
				accesses++
				if log.Comm(e) != (Comm{}) {
					t.Errorf("rank %d: access carries comm details %+v", rank, log.Comm(e))
				}
				continue
			}
			if e.Idx() != 0 {
				t.Errorf("rank %d: %v event has element index %d", rank, e.Kind, e.Idx())
			}
			got = append(got, recorded{e.Kind, e.Arr(), log.Comm(e)})
		}
		if wantAcc := 2 - rank; accesses != wantAcc {
			t.Errorf("rank %d: %d accesses, want %d", rank, accesses, wantAcc)
		}
		n := len(want[rank])
		if len(got) <= n {
			t.Fatalf("rank %d: %d comm events, want more than %d", rank, len(got), n)
		}
		if !reflect.DeepEqual(got[:n], want[rank]) {
			t.Errorf("rank %d comm events:\n got %+v\nwant %+v", rank, got[:n], want[rank])
		}
		// The rest are the Allreduce's raw transfers with the partner.
		for _, r := range got[n:] {
			if (r.kind != EvSendRaw && r.kind != EvRecvRaw) || r.arr != -1 || r.c.Peer != 1-rank || r.c.Elems != 1 {
				t.Errorf("rank %d: allreduce transfer reads back as %+v", rank, r)
			}
		}
	}
}
