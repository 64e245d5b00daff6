package tracer

import (
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Chunks: 0},
		{Chunks: -3},
	}
	for i, c := range bad {
		if _, err := Trace("x", 1, c, func(p *Proc) {}); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if _, err := Trace("x", 1, DefaultConfig(), func(p *Proc) {}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestChunkCount(t *testing.T) {
	c := DefaultConfig()
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 4}, {100, 4},
	}
	for _, tc := range cases {
		if got := c.ChunkCount(tc.n); got != tc.want {
			t.Errorf("ChunkCount(%d)=%d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestChunkBoundsPartition(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%200) + 1
		k := int(kRaw%8) + 1
		if k > n {
			k = n
		}
		prev := 0
		for c := 0; c < k; c++ {
			lo, hi := ChunkBounds(n, k, c)
			if lo != prev || hi < lo {
				return false
			}
			if hi-lo < n/k || hi-lo > n/k+1 {
				return false // chunks must be balanced
			}
			prev = hi
		}
		return prev == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkOfInvertsBounds(t *testing.T) {
	f := func(nRaw uint16, kRaw uint8) bool {
		n := int(nRaw%300) + 1
		k := int(kRaw%9) + 1
		if k > n {
			k = n
		}
		for idx := 0; idx < n; idx++ {
			c := ChunkOf(n, k, idx)
			lo, hi := ChunkBounds(n, k, c)
			if idx < lo || idx >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkOfMatchesOracle(t *testing.T) {
	for n := 1; n <= 300; n++ {
		for k := 1; k <= 12 && k <= n; k++ {
			for idx := 0; idx < n; idx++ {
				if got, want := ChunkOf(n, k, idx), refChunkOf(n, k, idx); got != want {
					t.Fatalf("ChunkOf(%d, %d, %d)=%d, oracle %d", n, k, idx, got, want)
				}
			}
		}
	}
}

// TestChunkMapMatchesChunkOf: the reciprocal form the access scan uses
// equals ChunkOf exhaustively on small arrays and at both ends of the
// 32-bit range, where it must switch between reciprocal and division.
func TestChunkMapMatchesChunkOf(t *testing.T) {
	check := func(n, k, idx int) {
		t.Helper()
		if got, want := newChunkMap(n, k).of(uint32(idx)), ChunkOf(n, k, idx); got != want {
			t.Fatalf("chunkMap(%d, %d).of(%d)=%d, ChunkOf %d", n, k, idx, got, want)
		}
	}
	for n := 1; n <= 300; n++ {
		for k := 1; k <= 12 && k <= n; k++ {
			for idx := 0; idx < n; idx++ {
				check(n, k, idx)
			}
		}
	}
	for _, nk := range [][2]int{{1<<32 - 1, 1}, {1 << 31, 2}, {1<<31 + 1, 2}, {1 << 30, 4}, {1<<30 + 7, 4}, {1<<32 - 1, 4}, {3<<30 + 5, 64}} {
		n, k := nk[0], nk[1]
		for _, idx := range []int{0, 1, n / 3, n/k - 1, n / k, n / 2, n - 2, n - 1} {
			check(n, k, idx)
		}
		for c := 0; c < k; c++ {
			lo, hi := ChunkBounds(n, k, c)
			check(n, k, lo)
			check(n, k, hi-1)
		}
	}
}

func TestClockAdvancesWithComputeAndAccesses(t *testing.T) {
	run, err := Trace("clock", 1, DefaultConfig(), func(p *Proc) {
		a := p.NewArray("a", 10)
		p.Compute(100)
		a.Store(0, 1) // +1
		_ = a.Load(0) // +1
		p.Compute(-5) // ignored
		p.Compute(48) // +48
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Logs[0].FinalClock; got != 150 {
		t.Fatalf("final clock=%d, want 150", got)
	}
}

func TestEventLogRecordsAccesses(t *testing.T) {
	run, err := Trace("log", 1, DefaultConfig(), func(p *Proc) {
		a := p.NewArray("buf", 4)
		p.Compute(10)
		a.Store(2, 3.5)
		if got := a.Load(2); got != 3.5 {
			t.Errorf("load got %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := eventsOf(run.Logs[0])
	if len(evs) != 2 {
		t.Fatalf("events=%d, want 2", len(evs))
	}
	if evs[0].Kind != EvStore || evs[0].Idx() != 2 || evs[0].T != 11 {
		t.Errorf("store event: %+v", evs[0])
	}
	if evs[1].Kind != EvLoad || evs[1].Idx() != 2 || evs[1].T != 12 {
		t.Errorf("load event: %+v", evs[1])
	}
	if run.Logs[0].ArrayNames[0] != "buf" || run.Logs[0].ArrayLens[0] != 4 {
		t.Errorf("array metadata: %+v", run.Logs[0])
	}
}

func TestTrackedSendRecvMovesData(t *testing.T) {
	run, err := Trace("p2p", 2, DefaultConfig(), func(p *Proc) {
		a := p.NewArray("msg", 8)
		if p.Rank() == 0 {
			for i := 0; i < 8; i++ {
				a.Store(i, float64(i*i))
			}
			p.Send(1, 3, a)
		} else {
			p.Recv(a, 0, 3)
			for i := 0; i < 8; i++ {
				if got := a.Load(i); got != float64(i*i) {
					t.Errorf("elem %d: %v", i, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var sends, recvs int
	for _, log := range run.Logs {
		for _, e := range log.Events() {
			switch e.Kind {
			case EvSend:
				sends++
				if c := log.Comm(e); c.Elems != 8 || c.Peer != 1 || c.Tag != 3 {
					t.Errorf("send event: %+v", e)
				}
			case EvRecv:
				recvs++
			}
		}
	}
	if sends != 1 || recvs != 1 {
		t.Fatalf("sends=%d recvs=%d", sends, recvs)
	}
}

func TestCollectivesTracedAsRawTransfers(t *testing.T) {
	run, err := Trace("coll", 4, DefaultConfig(), func(p *Proc) {
		out := make([]float64, 1)
		p.Allreduce([]float64{1}, out, mpi.OpSum)
		if out[0] != 4 {
			t.Errorf("allreduce=%v", out[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var raws int
	for _, log := range run.Logs {
		for _, e := range log.Events() {
			if e.Kind == EvSendRaw || e.Kind == EvRecvRaw {
				raws++
			}
		}
	}
	if raws == 0 {
		t.Fatal("collective produced no traced point-to-point transfers")
	}
	// The base trace built from it must be balanced and valid.
	tr := run.BaseTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("collective base trace invalid: %v", err)
	}
}

func TestAllreduceTrackedMarksArrays(t *testing.T) {
	run, err := Trace("alya", 2, DefaultConfig(), func(p *Proc) {
		in := p.NewArray("contrib", 1)
		out := p.NewArray("result", 1)
		in.Store(0, float64(p.Rank()+1))
		p.AllreduceTracked(in, out, mpi.OpSum)
		if got := out.Load(0); got != 3 {
			t.Errorf("tracked allreduce=%v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var marks int
	for _, e := range run.Logs[0].Events() {
		if e.Kind == EvCollSend || e.Kind == EvCollRecv {
			marks++
		}
	}
	if marks != 2 {
		t.Fatalf("collective marks=%d, want 2", marks)
	}
}

// pipelineApp is a 2-rank producer/consumer used by the builder tests:
// rank 0 produces n elements (sequentially) and sends; rank 1 receives and
// consumes sequentially. iters iterations.
func pipelineApp(n, iters int, computePerElem int64) func(p *Proc) {
	return func(p *Proc) {
		buf := p.NewArray("pipe", n)
		for it := 0; it < iters; it++ {
			if p.Rank() == 0 {
				for i := 0; i < n; i++ {
					p.Compute(computePerElem)
					buf.Store(i, float64(it*n+i))
				}
				p.Send(1, 0, buf)
			} else {
				p.Recv(buf, 0, 0)
				for i := 0; i < n; i++ {
					p.Compute(computePerElem)
					_ = buf.Load(i)
				}
			}
		}
	}
}

func TestBaseTraceStructure(t *testing.T) {
	run, err := Trace("pipe", 2, DefaultConfig(), pipelineApp(16, 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	tr := run.BaseTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("base trace invalid: %v", err)
	}
	s := tr.Stats()
	if s.Messages != 3 {
		t.Fatalf("messages=%d, want 3", s.Messages)
	}
	if s.BytesSent != 3*16*8 {
		t.Fatalf("bytes=%d, want %d", s.BytesSent, 3*16*8)
	}
	if s.Recvs != 3 {
		t.Fatalf("recvs=%d, want 3", s.Recvs)
	}
	// Total instructions preserved: each rank did 16*3 computes of 10
	// plus 16*3 accesses of cost 1.
	want := int64(16*3*10 + 16*3)
	for r := 0; r < 2; r++ {
		if got := tr.TotalInstructions(r); got != want {
			t.Fatalf("rank %d instructions=%d, want %d", r, got, want)
		}
	}
}

func TestOverlapRealStructure(t *testing.T) {
	run, err := Trace("pipe", 2, DefaultConfig(), pipelineApp(16, 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	tr := run.OverlapReal()
	if err := tr.Validate(); err != nil {
		t.Fatalf("overlap-real trace invalid: %v", err)
	}
	s := tr.Stats()
	// Every message split into 4 chunks.
	if s.Messages != 3*4 {
		t.Fatalf("chunked messages=%d, want 12", s.Messages)
	}
	if s.BytesSent != 3*16*8 {
		t.Fatalf("bytes must be conserved: %d, want %d", s.BytesSent, 3*16*8)
	}
	if s.IRecvs != 12 {
		t.Fatalf("irecvs=%d, want 12", s.IRecvs)
	}
	if s.Waits != 12 {
		t.Fatalf("waits=%d, want 12", s.Waits)
	}
	if s.MaxChunkIndex != 3 {
		t.Fatalf("max chunk=%d, want 3", s.MaxChunkIndex)
	}
	// Compute volume preserved.
	want := int64(16*3*10 + 16*3)
	for r := 0; r < 2; r++ {
		if got := tr.TotalInstructions(r); got != want {
			t.Fatalf("rank %d instructions=%d, want %d", r, got, want)
		}
	}
}

func TestOverlapIdealStructure(t *testing.T) {
	run, err := Trace("pipe", 2, DefaultConfig(), pipelineApp(16, 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	tr := run.OverlapIdeal()
	if err := tr.Validate(); err != nil {
		t.Fatalf("overlap-ideal trace invalid: %v", err)
	}
	s := tr.Stats()
	if s.Messages != 12 || s.IRecvs != 12 || s.Waits != 12 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestOverlapAdvancesSends(t *testing.T) {
	// In the real-pattern overlap, the first chunk's ISend must appear
	// before three quarters of the producing compute: find the compute
	// volume before the first ISend on rank 0 and compare with base.
	run, err := Trace("pipe", 2, DefaultConfig(), pipelineApp(64, 1, 100))
	if err != nil {
		t.Fatal(err)
	}
	instrBefore := func(tr *traceT, kind trace.Kind) int64 {
		var n int64
		for _, rec := range tr.Ranks[0].Records {
			if rec.Kind == kind {
				return n
			}
			if rec.Kind == trace.KindCompute {
				n += rec.Instr
			}
		}
		return -1
	}
	base := run.BaseTrace()
	real := run.OverlapReal()
	baseSendAt := instrBefore(base, trace.KindSend)
	chunkSendAt := instrBefore(real, trace.KindISend)
	if chunkSendAt < 0 || baseSendAt < 0 {
		t.Fatal("send records not found")
	}
	if chunkSendAt >= baseSendAt {
		t.Fatalf("first chunk isend at %d instr, not advanced vs base send at %d", chunkSendAt, baseSendAt)
	}
	// Producer stores sequentially, so chunk 0 completes at ~1/4 of the burst.
	if chunkSendAt > baseSendAt/3 {
		t.Fatalf("first chunk isend at %d, expected near %d (quarter of %d)", chunkSendAt, baseSendAt/4, baseSendAt)
	}
}

type traceT = trace.Trace

func TestOverlapPostponesWaits(t *testing.T) {
	// Consumer loads sequentially: the wait for chunk 3 must sit past
	// half of the consuming burst.
	run, err := Trace("pipe", 2, DefaultConfig(), pipelineApp(64, 1, 100))
	if err != nil {
		t.Fatal(err)
	}
	real := run.OverlapReal()
	recs := real.Ranks[1].Records
	var instr, instrAtLastWait int64
	waits := 0
	for _, rec := range recs {
		if rec.Kind == trace.KindCompute {
			instr += rec.Instr
		}
		if rec.Kind == trace.KindWait {
			waits++
			instrAtLastWait = instr
		}
	}
	if waits != 4 {
		t.Fatalf("waits=%d, want 4", waits)
	}
	if instrAtLastWait < instr/2 {
		t.Fatalf("last wait at %d of %d instructions: not postponed", instrAtLastWait, instr)
	}
}

func TestOneElementMessagesNeverChunk(t *testing.T) {
	run, err := Trace("tiny", 2, DefaultConfig(), func(p *Proc) {
		a := p.NewArray("one", 1)
		if p.Rank() == 0 {
			a.Store(0, 7)
			p.Send(1, 0, a)
		} else {
			p.Recv(a, 0, 0)
			_ = a.Load(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	real := run.OverlapReal()
	if err := real.Validate(); err != nil {
		t.Fatal(err)
	}
	s := real.Stats()
	if s.Messages != 1 || s.MaxChunkIndex != 0 {
		t.Fatalf("one-element message was chunked: %+v", s)
	}
}

func TestSmallMessagesChunkPerElement(t *testing.T) {
	run, err := Trace("small", 2, DefaultConfig(), func(p *Proc) {
		a := p.NewArray("three", 3)
		if p.Rank() == 0 {
			for i := 0; i < 3; i++ {
				a.Store(i, float64(i))
			}
			p.Send(1, 0, a)
		} else {
			p.Recv(a, 0, 0)
			for i := 0; i < 3; i++ {
				_ = a.Load(i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := run.OverlapReal().Stats()
	if s.Messages != 3 {
		t.Fatalf("3-element message should form 3 chunks, got %d", s.Messages)
	}
}

func TestUnconsumedChunksDrainBeforeNextReceive(t *testing.T) {
	// The consumer loads only the first quarter each iteration: the other
	// chunks' waits must drain before the buffer's next irecv generation,
	// keeping the trace valid.
	app := func(p *Proc) {
		buf := p.NewArray("b", 16)
		for it := 0; it < 3; it++ {
			if p.Rank() == 0 {
				for i := 0; i < 16; i++ {
					p.Compute(5)
					buf.Store(i, 1)
				}
				p.Send(1, 0, buf)
			} else {
				p.Recv(buf, 0, 0)
				for i := 0; i < 4; i++ {
					p.Compute(5)
					_ = buf.Load(i)
				}
			}
		}
	}
	run, err := Trace("drain", 2, DefaultConfig(), app)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*trace.Trace{run.OverlapReal(), run.OverlapIdeal()} {
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", tr.Flavor, err)
		}
	}
}

func TestMixedTrackedAndCollectiveTraffic(t *testing.T) {
	app := func(p *Proc) {
		buf := p.NewArray("halo", 12)
		sum := make([]float64, 1)
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() - 1 + p.Size()) % p.Size()
		for it := 0; it < 2; it++ {
			for i := 0; i < 12; i++ {
				p.Compute(3)
				buf.Store(i, float64(i))
			}
			if p.Rank()%2 == 0 {
				p.Send(next, 1, buf)
				p.Recv(buf, prev, 1)
			} else {
				p.Recv(buf, prev, 1)
				p.Send(next, 1, buf)
			}
			for i := 0; i < 12; i++ {
				p.Compute(3)
				_ = buf.Load(i)
			}
			p.Allreduce([]float64{1}, sum, mpi.OpSum)
		}
	}
	run, err := Trace("mixed", 4, DefaultConfig(), app)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*trace.Trace{run.BaseTrace(), run.OverlapReal(), run.OverlapIdeal()} {
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", tr.Flavor, err)
		}
	}
}

func TestPropertyOverlapTracesAlwaysValid(t *testing.T) {
	// Across a range of message sizes, iteration counts and chunk
	// configurations, all three traces must validate and conserve both
	// bytes and instructions.
	f := func(nRaw, itRaw, chRaw uint8) bool {
		n := int(nRaw%60) + 1
		iters := int(itRaw%4) + 1
		chunks := int(chRaw%6) + 1
		cfg := Config{Chunks: chunks}
		run, err := Trace("prop", 2, cfg, pipelineApp(n, iters, 7))
		if err != nil {
			return false
		}
		base := run.BaseTrace()
		real := run.OverlapReal()
		ideal := run.OverlapIdeal()
		for _, tr := range []*trace.Trace{base, real, ideal} {
			if tr.Validate() != nil {
				return false
			}
		}
		bs, rs, is := base.Stats(), real.Stats(), ideal.Stats()
		if bs.BytesSent != rs.BytesSent || bs.BytesSent != is.BytesSent {
			return false
		}
		for r := 0; r < 2; r++ {
			bi := base.TotalInstructions(r)
			if real.TotalInstructions(r) != bi || ideal.TotalInstructions(r) != bi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
