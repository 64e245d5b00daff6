package tracer

import (
	"testing"

	"repro/internal/trace"
)

// haloApp exchanges a buffer bidirectionally with non-blocking transfers:
// post, send, wait, consume next iteration.
func haloApp(n, iters int, step int64) func(p *Proc) {
	return func(p *Proc) {
		me := p.Rank()
		peer := 1 - me
		out := p.NewArray("out", n)
		in := p.NewArray("in", n)
		for it := 0; it < iters; it++ {
			if it > 0 {
				for i := 0; i < n; i++ {
					_ = in.Load(i)
				}
			}
			p.Compute(step)
			for i := 0; i < n; i++ {
				out.Store(i, float64(it*n+i))
			}
			req := p.Irecv(in, peer, 7)
			p.Isend(peer, 7, out)
			req.Wait()
		}
	}
}

func TestNonblockingEventsRecorded(t *testing.T) {
	run, err := Trace("halo", 2, DefaultConfig(), haloApp(16, 3, 1000))
	if err != nil {
		t.Fatal(err)
	}
	var posts, waits, isends int
	for _, e := range run.Logs[0].Events() {
		switch e.Kind {
		case EvIRecvPost:
			posts++
			if c := run.Logs[0].Comm(e); c.Elems != 16 || c.Handle == 0 {
				t.Errorf("bad post event: %+v", e)
			}
		case EvRecvWait:
			waits++
		case EvISend:
			isends++
		}
	}
	if posts != 3 || waits != 3 || isends != 3 {
		t.Fatalf("posts=%d waits=%d isends=%d, want 3 each", posts, waits, isends)
	}
}

func TestNonblockingDataMoves(t *testing.T) {
	err := func() error {
		_, err := Trace("halo", 2, DefaultConfig(), func(p *Proc) {
			out := p.NewArray("o", 4)
			in := p.NewArray("i", 4)
			for i := 0; i < 4; i++ {
				out.Store(i, float64(p.Rank()*100+i))
			}
			req := p.Irecv(in, 1-p.Rank(), 0)
			p.Isend(1-p.Rank(), 0, out)
			req.Wait()
			for i := 0; i < 4; i++ {
				want := float64((1-p.Rank())*100 + i)
				if got := in.Load(i); got != want {
					panic("wrong data")
				}
			}
		})
		return err
	}()
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoubleWaitIsNoop(t *testing.T) {
	run, err := Trace("halo", 2, DefaultConfig(), func(p *Proc) {
		a := p.NewArray("a", 2)
		if p.Rank() == 0 {
			a.Store(0, 1)
			a.Store(1, 2)
			p.Isend(1, 0, a)
		} else {
			req := p.Irecv(a, 0, 0)
			req.Wait()
			req.Wait() // must not record a second wait
			_ = a.Load(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	waits := 0
	for _, e := range run.Logs[1].Events() {
		if e.Kind == EvRecvWait {
			waits++
		}
	}
	if waits != 1 {
		t.Fatalf("waits=%d, want 1", waits)
	}
}

func TestNonblockingBaseTraceStructure(t *testing.T) {
	run, err := Trace("halo", 2, DefaultConfig(), haloApp(16, 3, 1000))
	if err != nil {
		t.Fatal(err)
	}
	base := run.BaseTrace()
	if err := base.Validate(); err != nil {
		t.Fatalf("base invalid: %v", err)
	}
	s := base.Stats()
	if s.IRecvs != 6 || s.Waits != 6 {
		t.Fatalf("irecvs=%d waits=%d, want 6 each", s.IRecvs, s.Waits)
	}
	// All sends are non-blocking ISend records.
	for r := 0; r < 2; r++ {
		for _, rec := range base.Ranks[r].Records {
			if rec.Kind == trace.KindSend {
				t.Fatalf("blocking send in non-blocking app: %+v", rec)
			}
		}
	}
}

func TestNonblockingOverlapTraces(t *testing.T) {
	run, err := Trace("halo", 2, DefaultConfig(), haloApp(16, 3, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*trace.Trace{run.OverlapReal(), run.OverlapIdeal()} {
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", tr.Flavor, err)
		}
		s := tr.Stats()
		// 3 exchanges per rank, 4 chunks each: 24 chunk messages.
		if s.Messages != 24 {
			t.Fatalf("%s: messages=%d, want 24", tr.Flavor, s.Messages)
		}
		if s.IRecvs != 24 || s.Waits != 24 {
			t.Fatalf("%s: irecvs=%d waits=%d, want 24", tr.Flavor, s.IRecvs, s.Waits)
		}
	}
}

func TestBufferNames(t *testing.T) {
	run, err := Trace("halo", 2, DefaultConfig(), haloApp(8, 2, 100))
	if err != nil {
		t.Fatal(err)
	}
	names := run.BufferNames()
	if len(names) != 2 || names[0] != "in" || names[1] != "out" {
		t.Fatalf("buffer names: %v", names)
	}
}

func TestOverlapSelective(t *testing.T) {
	run, err := Trace("halo", 2, DefaultConfig(), haloApp(64, 3, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	sel := run.OverlapSelective(map[string]bool{"out": true})
	if err := sel.Validate(); err != nil {
		t.Fatalf("selective trace invalid: %v", err)
	}
	if sel.Flavor != "overlap-selective" {
		t.Fatalf("flavor=%q", sel.Flavor)
	}
	// The selective trace must differ from both pure flavours: "out"
	// gets the ideal send schedule while the waits keep the measured
	// first-load placement.
	real := run.OverlapReal()
	ideal := run.OverlapIdeal()
	if tracesEqual(sel, real) {
		t.Fatal("selective trace equals overlap-real")
	}
	if tracesEqual(sel, ideal) {
		t.Fatal("selective trace equals overlap-ideal")
	}
}

func tracesEqual(a, b *trace.Trace) bool {
	if a.NumRanks != b.NumRanks {
		return false
	}
	for r := range a.Ranks {
		if len(a.Ranks[r].Records) != len(b.Ranks[r].Records) {
			return false
		}
		for i := range a.Ranks[r].Records {
			if a.Ranks[r].Records[i] != b.Ranks[r].Records[i] {
				return false
			}
		}
	}
	return true
}
