package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/trace"
)

// testCfg returns a simple platform: 1000 MIPS (1e9 instr/s), 10us latency,
// 100 MB/s, unlimited buses and ports, eager sends.
func testCfg(procs int) network.Config {
	return network.Config{
		Processors:          procs,
		LatencySec:          10e-6,
		BandwidthMBps:       100,
		MIPS:                1000,
		EagerThresholdBytes: -1,
		RelativeSpeed:       1,
	}
}

const eps = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSingleRankComputeOnly(t *testing.T) {
	tr := trace.New("t", "base", 1)
	tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 2_000_000}) // 2ms at 1000 MIPS
	res, err := Run(testCfg(1).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.FinishSec, 0.002) {
		t.Fatalf("finish=%g, want 0.002", res.FinishSec)
	}
	if len(res.Intervals) != 1 || res.Intervals[0].State != StateCompute {
		t.Fatalf("intervals=%+v", res.Intervals)
	}
}

func TestPingTiming(t *testing.T) {
	// Rank 0 sends 1 MB immediately; rank 1 receives immediately.
	// Receiver completes at L + S/BW = 10us + 0.01s.
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: 1, Bytes: 1_000_000})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 1, Bytes: 1_000_000})
	res, err := Run(testCfg(2).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	want := 10e-6 + 0.01
	if !near(res.FinishSec, want) {
		t.Fatalf("finish=%g, want %g", res.FinishSec, want)
	}
	if len(res.Comms) != 1 {
		t.Fatalf("comms=%d, want 1", len(res.Comms))
	}
	c := res.Comms[0]
	if !near(c.ArriveT, want) || !near(c.MatchT, want) || c.StartT != 0 {
		t.Fatalf("comm timing: %+v", c)
	}
	// Receiver waited the whole flight.
	if !near(res.Ranks[1].WaitSec, want) {
		t.Fatalf("rank1 wait=%g, want %g", res.Ranks[1].WaitSec, want)
	}
	// Eager sends are asynchronous (Dimemas default): the sender is not
	// blocked by the injection.
	if res.Ranks[0].SendBlockedSec != 0 {
		t.Fatalf("rank0 send-blocked=%g, want 0 (async eager send)", res.Ranks[0].SendBlockedSec)
	}
}

func TestLateReceiverSeesNoWait(t *testing.T) {
	// The receiver computes past the arrival; its recv completes instantly.
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: 0, Bytes: 1000})
	tr.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 50_000_000}) // 50ms
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 0, Bytes: 1000})
	res, err := Run(testCfg(2).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[1].WaitSec != 0 {
		t.Fatalf("late receiver waited %g", res.Ranks[1].WaitSec)
	}
	if !near(res.FinishSec, 0.05) {
		t.Fatalf("finish=%g, want 0.05", res.FinishSec)
	}
}

func TestIRecvWaitPostponesBlocking(t *testing.T) {
	// Receiver posts irecv, computes 5ms (message arrives meanwhile),
	// then waits: the wait must be free.
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 1, Tag: 2, Bytes: 1000})
	tr.Append(1, trace.Record{Kind: trace.KindIRecv, Peer: 0, Tag: 2, Bytes: 1000, Handle: 1})
	tr.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 5_000_000})
	tr.Append(1, trace.Record{Kind: trace.KindWait, Handle: 1})
	res, err := Run(testCfg(2).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[1].WaitSec != 0 {
		t.Fatalf("wait=%g, want 0 (overlapped)", res.Ranks[1].WaitSec)
	}
	if !near(res.FinishSec, 0.005) {
		t.Fatalf("finish=%g, want 0.005", res.FinishSec)
	}
}

func TestWaitBlocksUntilArrival(t *testing.T) {
	// Sender delays 5ms; receiver waits immediately after posting.
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 5_000_000})
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 1, Tag: 2, Bytes: 100_000})
	tr.Append(1, trace.Record{Kind: trace.KindIRecv, Peer: 0, Tag: 2, Bytes: 100_000, Handle: 1})
	tr.Append(1, trace.Record{Kind: trace.KindWait, Handle: 1})
	res, err := Run(testCfg(2).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.005 + 10e-6 + 0.001
	if !near(res.FinishSec, want) {
		t.Fatalf("finish=%g, want %g", res.FinishSec, want)
	}
	if !near(res.Ranks[1].WaitSec, want) {
		t.Fatalf("wait=%g, want %g", res.Ranks[1].WaitSec, want)
	}
}

func TestWaitAll(t *testing.T) {
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 1, Tag: 0, Bytes: 1000})
	tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 2_000_000})
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 1, Tag: 1, Bytes: 1000})
	tr.Append(1, trace.Record{Kind: trace.KindIRecv, Peer: 0, Tag: 0, Bytes: 1000, Handle: 1})
	tr.Append(1, trace.Record{Kind: trace.KindIRecv, Peer: 0, Tag: 1, Bytes: 1000, Handle: 2})
	tr.Append(1, trace.Record{Kind: trace.KindWaitAll})
	tr.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 1_000_000})
	res, err := Run(testCfg(2).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Second isend leaves at 2ms, arrives at 2ms+10us+10us.
	want := 0.002 + 10e-6 + 1e-5 + 0.001
	if !near(res.FinishSec, want) {
		t.Fatalf("finish=%g, want %g", res.FinishSec, want)
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	// Two same-tag messages of different sizes: the first send must match
	// the first recv even though the second could arrive earlier under
	// some model; sizes here keep arrival order, but the match pairing is
	// what we assert via MsgID.
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 1, Tag: 5, Bytes: 500_000, MsgID: 1})
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 1, Tag: 5, Bytes: 100, MsgID: 2})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 5, Bytes: 500_000, MsgID: 1})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 5, Bytes: 100, MsgID: 2})
	res, err := Run(testCfg(2).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Comms) != 2 {
		t.Fatalf("comms=%d", len(res.Comms))
	}
	if res.Comms[0].MsgID != 1 || res.Comms[1].MsgID != 2 {
		t.Fatalf("send order lost: %+v", res.Comms)
	}
	if res.Comms[0].MatchT > res.Comms[1].MatchT+eps {
		t.Fatalf("first message matched after second: %g > %g", res.Comms[0].MatchT, res.Comms[1].MatchT)
	}
}

func TestChunkStreamsMatchIndependently(t *testing.T) {
	// Chunk 1 is sent first but the receiver waits for chunk 0 first;
	// distinct chunk streams must not block each other.
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 1, Tag: 0, Chunk: 1, Bytes: 1000})
	tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 1_000_000})
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 1, Tag: 0, Chunk: 0, Bytes: 1000})
	tr.Append(1, trace.Record{Kind: trace.KindIRecv, Peer: 0, Tag: 0, Chunk: 0, Bytes: 1000, Handle: 1})
	tr.Append(1, trace.Record{Kind: trace.KindIRecv, Peer: 0, Tag: 0, Chunk: 1, Bytes: 1000, Handle: 2})
	tr.Append(1, trace.Record{Kind: trace.KindWait, Handle: 1})
	tr.Append(1, trace.Record{Kind: trace.KindWait, Handle: 2})
	res, err := Run(testCfg(2).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.001 + 10e-6 + 1e-5
	if !near(res.FinishSec, want) {
		t.Fatalf("finish=%g, want %g", res.FinishSec, want)
	}
}

func TestBusContentionSerializesTransfers(t *testing.T) {
	// Three senders to three receivers through one bus: flights serialize.
	cfg := testCfg(6)
	cfg.Buses = 1
	cfg.InPorts = 0
	cfg.OutPorts = 0
	tr := trace.New("t", "base", 6)
	for i := 0; i < 3; i++ {
		tr.Append(i, trace.Record{Kind: trace.KindISend, Peer: 3 + i, Tag: 0, Bytes: 1_000_000})
		tr.Append(3+i, trace.Record{Kind: trace.KindRecv, Peer: i, Tag: 0, Bytes: 1_000_000})
	}
	res, err := Run(cfg.Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Buses are occupied for the serialization time; the last transfer
	// starts after two full serializations and lands after its own
	// serialization plus the latency.
	want := 3*0.01 + 10e-6
	if !near(res.FinishSec, want) {
		t.Fatalf("finish=%g, want %g (3 serialized transfers)", res.FinishSec, want)
	}
	// With 3 buses they run concurrently.
	res2, err := Run(cfg.WithBuses(3).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res2.FinishSec, 0.01+10e-6) {
		t.Fatalf("finish=%g, want %g (parallel flights)", res2.FinishSec, 0.01+10e-6)
	}
}

func TestOutPortContention(t *testing.T) {
	// One sender, two receivers, one out port: serializations queue.
	cfg := testCfg(3)
	cfg.OutPorts = 1
	cfg.InPorts = 0
	tr := trace.New("t", "base", 3)
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 1, Tag: 0, Bytes: 1_000_000})
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 2, Tag: 0, Bytes: 1_000_000})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 0, Bytes: 1_000_000})
	tr.Append(2, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 0, Bytes: 1_000_000})
	res, err := Run(cfg.Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Second transfer starts after the first's 10ms serialization.
	want := 0.01 + 0.01 + 10e-6
	if !near(res.FinishSec, want) {
		t.Fatalf("finish=%g, want %g", res.FinishSec, want)
	}
}

func TestRendezvousWaitsForPost(t *testing.T) {
	cfg := testCfg(2)
	cfg.EagerThresholdBytes = 100 // everything above 100 B is rendezvous
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: 0, Bytes: 1000})
	tr.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 5_000_000})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 0, Bytes: 1000})
	res, err := Run(cfg.Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Transfer cannot start before the recv posts at 5ms.
	want := 0.005 + 10e-6 + 1e-5
	if !near(res.FinishSec, want) {
		t.Fatalf("finish=%g, want %g", res.FinishSec, want)
	}
	if !near(res.Ranks[0].SendBlockedSec, want-10e-6) {
		t.Fatalf("sender blocked %g, want %g", res.Ranks[0].SendBlockedSec, want-10e-6)
	}
}

func TestEagerMessageBelowThresholdDoesNotHandshake(t *testing.T) {
	cfg := testCfg(2)
	cfg.EagerThresholdBytes = 1 << 20
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: 0, Bytes: 1000})
	tr.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 5_000_000})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 0, Bytes: 1000})
	res, err := Run(cfg.Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.FinishSec, 0.005) {
		t.Fatalf("finish=%g, want 0.005 (message arrived during compute)", res.FinishSec)
	}
}

func TestDeadlockDetected(t *testing.T) {
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindRecv, Peer: 1, Tag: 0, Bytes: 8})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 0, Bytes: 8})
	_, err := Run(testCfg(2).Platform(), tr)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked ranks: %v", de.Blocked)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	tr := trace.New("t", "base", 1)
	cfg := testCfg(1)
	cfg.MIPS = 0
	if _, err := Run(cfg.Platform(), tr); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := Run(testCfg(1).Platform(), trace.New("t", "base", 5)); err == nil {
		t.Fatal("trace larger than platform accepted")
	}
}

func TestInfiniteBandwidth(t *testing.T) {
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: 0, Bytes: 1 << 30})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 0, Bytes: 1 << 30})
	res, err := Run(testCfg(2).InfiniteBandwidth().Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.FinishSec, 10e-6) {
		t.Fatalf("finish=%g, want latency only", res.FinishSec)
	}
}

func TestStatsAccounting(t *testing.T) {
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 1_000_000})
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 1, Tag: 0, Bytes: 123})
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 1, Tag: 1, Bytes: 77})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 0, Bytes: 123})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 1, Bytes: 77})
	res, err := Run(testCfg(2).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0].MsgsSent != 2 || res.Ranks[0].BytesSent != 200 {
		t.Fatalf("sender stats: %+v", res.Ranks[0])
	}
	if !near(res.Ranks[0].ComputeSec, 0.001) {
		t.Fatalf("compute=%g", res.Ranks[0].ComputeSec)
	}
	if got := res.TotalComputeSec(); !near(got, 0.001) {
		t.Fatalf("TotalComputeSec=%g", got)
	}
	if res.TotalWaitSec() <= 0 {
		t.Fatal("receiver should have waited")
	}
}

func TestIntervalsSortedAndConsistent(t *testing.T) {
	tr := ringTrace(4, 10, 100_000, 10_000)
	res, err := Run(testCfg(4).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Intervals); i++ {
		a, b := res.Intervals[i-1], res.Intervals[i]
		if b.Rank < a.Rank || (a.Rank == b.Rank && b.Start < a.Start) {
			t.Fatalf("intervals unsorted at %d: %+v %+v", i, a, b)
		}
	}
	for _, iv := range res.Intervals {
		if iv.End <= iv.Start {
			t.Fatalf("empty interval %+v", iv)
		}
		if iv.End > res.FinishSec+eps {
			t.Fatalf("interval past finish: %+v (finish %g)", iv, res.FinishSec)
		}
	}
	// Per-rank intervals must not overlap.
	last := map[int]float64{}
	for _, iv := range res.Intervals {
		if iv.Start < last[iv.Rank]-eps {
			t.Fatalf("overlapping intervals on rank %d at %g", iv.Rank, iv.Start)
		}
		last[iv.Rank] = iv.End
	}
}

// ringTrace builds a trace where each rank computes then passes a token
// around a ring for iters iterations.
func ringTrace(n, iters int, instr int64, bytes int64) *trace.Trace {
	tr := trace.New("ring", "base", n)
	for it := 0; it < iters; it++ {
		for r := 0; r < n; r++ {
			next := (r + 1) % n
			prev := (r + n - 1) % n
			tr.Append(r, trace.Record{Kind: trace.KindCompute, Instr: instr})
			if r%2 == 0 {
				tr.Append(r, trace.Record{Kind: trace.KindSend, Peer: next, Tag: it, Bytes: bytes})
				tr.Append(r, trace.Record{Kind: trace.KindRecv, Peer: prev, Tag: it, Bytes: bytes})
			} else {
				tr.Append(r, trace.Record{Kind: trace.KindRecv, Peer: prev, Tag: it, Bytes: bytes})
				tr.Append(r, trace.Record{Kind: trace.KindSend, Peer: next, Tag: it, Bytes: bytes})
			}
		}
	}
	return tr
}

func TestRingCompletes(t *testing.T) {
	res, err := Run(testCfg(8).Platform(), ringTrace(8, 20, 1_000_000, 64_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinishSec <= 0 {
		t.Fatal("zero finish time")
	}
	s := ringTrace(8, 20, 1_000_000, 64_000).Stats()
	if len(res.Comms) != s.Messages {
		t.Fatalf("comms=%d, want %d", len(res.Comms), s.Messages)
	}
	for i, c := range res.Comms {
		if math.IsNaN(c.MatchT) || math.IsNaN(c.ArriveT) || math.IsNaN(c.StartT) {
			t.Fatalf("comm %d incomplete: %+v", i, c)
		}
		if c.StartT < c.SendT-eps || c.ArriveT < c.StartT || c.MatchT < c.ArriveT-eps {
			t.Fatalf("comm %d time order broken: %+v", i, c)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	tr := ringTrace(6, 15, 500_000, 32_000)
	a, err := Run(testCfg(6).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testCfg(6).Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinishSec != b.FinishSec {
		t.Fatalf("nondeterministic finish: %g vs %g", a.FinishSec, b.FinishSec)
	}
	if len(a.Comms) != len(b.Comms) {
		t.Fatalf("nondeterministic comm count")
	}
	for i := range a.Comms {
		if a.Comms[i] != b.Comms[i] {
			t.Fatalf("comm %d differs: %+v vs %+v", i, a.Comms[i], b.Comms[i])
		}
	}
}

// randomBalancedTrace builds a random but deadlock-free trace: sends happen
// before the matching receives in a global order built from a topological
// schedule (each message's recv is appended after its send in per-rank
// streams, using distinct tags per message).
func randomBalancedTrace(rng *rand.Rand, n, msgs int) *trace.Trace {
	tr := trace.New("rand", "base", n)
	handle := make([]int, n)
	for m := 0; m < msgs; m++ {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		bytes := int64(rng.Intn(200_000) + 1)
		tag := m // unique tag per message: no cross-iteration coupling
		tr.Append(src, trace.Record{Kind: trace.KindCompute, Instr: int64(rng.Intn(2_000_000))})
		tr.Append(src, trace.Record{Kind: trace.KindISend, Peer: dst, Tag: tag, Bytes: bytes, MsgID: int64(m)})
		tr.Append(dst, trace.Record{Kind: trace.KindCompute, Instr: int64(rng.Intn(2_000_000))})
		switch rng.Intn(3) {
		case 0:
			tr.Append(dst, trace.Record{Kind: trace.KindRecv, Peer: src, Tag: tag, Bytes: bytes, MsgID: int64(m)})
		case 1:
			handle[dst]++
			tr.Append(dst, trace.Record{Kind: trace.KindIRecv, Peer: src, Tag: tag, Bytes: bytes, Handle: handle[dst], MsgID: int64(m)})
			tr.Append(dst, trace.Record{Kind: trace.KindCompute, Instr: int64(rng.Intn(500_000))})
			tr.Append(dst, trace.Record{Kind: trace.KindWait, Handle: handle[dst]})
		default:
			handle[dst]++
			tr.Append(dst, trace.Record{Kind: trace.KindIRecv, Peer: src, Tag: tag, Bytes: bytes, Handle: handle[dst], MsgID: int64(m)})
			tr.Append(dst, trace.Record{Kind: trace.KindWaitAll})
		}
	}
	return tr
}

func TestPropertyRandomTracesComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomBalancedTrace(rng, 3+rng.Intn(5), 30+rng.Intn(50))
		if err := tr.Validate(); err != nil {
			t.Logf("generator bug: %v", err)
			return false
		}
		res, err := Run(testCfg(8).Platform(), tr)
		if err != nil {
			t.Logf("replay failed: %v", err)
			return false
		}
		return res.FinishSec >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFinishMonotoneInBandwidth(t *testing.T) {
	// Higher bandwidth must never slow the ring down.
	tr := ringTrace(6, 10, 1_000_000, 100_000)
	f := func(a uint16) bool {
		lo := float64(a%500) + 1
		hi := lo * 2
		rlo, err1 := Run(testCfg(6).WithBandwidth(lo).Platform(), tr)
		rhi, err2 := Run(testCfg(6).WithBandwidth(hi).Platform(), tr)
		if err1 != nil || err2 != nil {
			return false
		}
		return rhi.FinishSec <= rlo.FinishSec+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMoreBusesNeverSlower(t *testing.T) {
	tr := ringTrace(6, 8, 200_000, 150_000)
	f := func(a uint8) bool {
		b := int(a%8) + 1
		r1, err1 := Run(testCfg(6).WithBuses(b).Platform(), tr)
		r2, err2 := Run(testCfg(6).WithBuses(b+4).Platform(), tr)
		if err1 != nil || err2 != nil {
			return false
		}
		return r2.FinishSec <= r1.FinishSec+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	if StateCompute.String() != "compute" || StateSendBlocked.String() != "send" || StateWaitRecv.String() != "wait" {
		t.Fatal("state strings wrong")
	}
	if State(9).String() != "state(9)" {
		t.Fatal("unknown state string wrong")
	}
}
