package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/trace"
)

// allocRing builds the bench-shaped ring-exchange trace (also used by the
// !race-gated allocation pins).
func allocRing(n, iters int) *trace.Trace { return nodeRings(1, n, iters) }

// nodeRings builds one ring exchange inside each of nodes blocks of per
// consecutive ranks: on a block-mapped platform with per ranks a node,
// no message crosses the interconnect.
func nodeRings(nodes, per, iters int) *trace.Trace {
	n := nodes * per
	tr := trace.New("ring", "base", n)
	for it := 0; it < iters; it++ {
		for r := 0; r < n; r++ {
			base := r / per * per
			next := base + (r-base+1)%per
			prev := base + (r-base+per-1)%per
			tr.Append(r, trace.Record{Kind: trace.KindCompute, Instr: 100_000})
			tr.Append(r, trace.Record{Kind: trace.KindISend, Peer: next, Tag: it, Bytes: 10_000})
			tr.Append(r, trace.Record{Kind: trace.KindRecv, Peer: prev, Tag: it, Bytes: 10_000})
		}
	}
	return tr
}

// pingPong builds a two-rank ping-pong: rank 0 computes and sends, rank
// 1 receives, computes and answers. With one rank per node the two ranks
// take turns, so no conservative window ever has two busy shards.
func pingPong(iters int) *trace.Trace {
	tr := trace.New("pingpong", "base", 2)
	for it := 0; it < iters; it++ {
		tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 100_000})
		tr.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: it, Bytes: 1_000})
		tr.Append(0, trace.Record{Kind: trace.KindRecv, Peer: 1, Tag: it, Bytes: 1_000})
		tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: it, Bytes: 1_000})
		tr.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 100_000})
		tr.Append(1, trace.Record{Kind: trace.KindSend, Peer: 0, Tag: it, Bytes: 1_000})
	}
	return tr
}

// allocHandleReuse builds a ring where every receive is an IRecv whose
// single rank-local handle is legally reposted after each Wait, with a
// WaitAll per iteration — the worst case for the active-handle lists
// (one activation per IRecv, far more than distinct handles).
func allocHandleReuse(n, iters int) *trace.Trace {
	tr := trace.New("ring-irecv", "base", n)
	for it := 0; it < iters; it++ {
		for r := 0; r < n; r++ {
			next := (r + 1) % n
			prev := (r + n - 1) % n
			tr.Append(r, trace.Record{Kind: trace.KindIRecv, Peer: prev, Tag: it, Bytes: 10_000, Handle: 1})
			tr.Append(r, trace.Record{Kind: trace.KindCompute, Instr: 100_000})
			tr.Append(r, trace.Record{Kind: trace.KindISend, Peer: next, Tag: it, Bytes: 10_000})
			if it%2 == 0 {
				tr.Append(r, trace.Record{Kind: trace.KindWait, Handle: 1})
			} else {
				tr.Append(r, trace.Record{Kind: trace.KindWaitAll})
			}
		}
	}
	return tr
}

// pdesPlatform is a shardable multi-node platform: nodes over shared
// memory (unlimited intra-node bus pool, the PDES requirement) connected
// by a port-limited interconnect.
func pdesPlatform(ranks, nodes int) network.Platform {
	pl := network.Testbed(ranks)
	pl.Nodes = nodes
	pl.Intra = network.Link{LatencySec: 0.2e-6, BandwidthMBps: 12000}
	pl.IntraBuses = 0
	pl.Inter = network.Link{LatencySec: 1.3e-6, BandwidthMBps: 1000}
	pl.InPorts = 2
	pl.OutPorts = 2
	return pl
}

// f64bits compares floats bit-for-bit: NaN==NaN (all engine NaNs come
// from math.NaN()) and -0 != +0 — the strictest byte-identity notion.
func f64bits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireIdentical fails unless a and b are byte-identical results.
func requireIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !f64bits(a.FinishSec, b.FinishSec) {
		t.Fatalf("%s: FinishSec %v != %v", label, a.FinishSec, b.FinishSec)
	}
	if len(a.Ranks) != len(b.Ranks) {
		t.Fatalf("%s: rank count %d != %d", label, len(a.Ranks), len(b.Ranks))
	}
	for i := range a.Ranks {
		x, y := a.Ranks[i], b.Ranks[i]
		if !f64bits(x.ComputeSec, y.ComputeSec) || !f64bits(x.SendBlockedSec, y.SendBlockedSec) ||
			!f64bits(x.WaitSec, y.WaitSec) || !f64bits(x.FinishSec, y.FinishSec) ||
			x.BytesSent != y.BytesSent || x.MsgsSent != y.MsgsSent {
			t.Fatalf("%s: rank %d stats differ:\n  %+v\n  %+v", label, i, x, y)
		}
	}
	if len(a.Intervals) != len(b.Intervals) {
		t.Fatalf("%s: interval count %d != %d", label, len(a.Intervals), len(b.Intervals))
	}
	for i := range a.Intervals {
		x, y := a.Intervals[i], b.Intervals[i]
		if x.Rank != y.Rank || x.State != y.State || !f64bits(x.Start, y.Start) || !f64bits(x.End, y.End) {
			t.Fatalf("%s: interval %d differs:\n  %+v\n  %+v", label, i, x, y)
		}
	}
	if len(a.Comms) != len(b.Comms) {
		t.Fatalf("%s: comm count %d != %d", label, len(a.Comms), len(b.Comms))
	}
	for i := range a.Comms {
		x, y := a.Comms[i], b.Comms[i]
		if x.Src != y.Src || x.Dst != y.Dst || x.Tag != y.Tag || x.Chunk != y.Chunk ||
			x.Bytes != y.Bytes || x.MsgID != y.MsgID || x.Intra != y.Intra ||
			!f64bits(x.SendT, y.SendT) || !f64bits(x.StartT, y.StartT) ||
			!f64bits(x.ArriveT, y.ArriveT) || !f64bits(x.MatchT, y.MatchT) {
			t.Fatalf("%s: comm %d differs:\n  %+v\n  %+v", label, i, x, y)
		}
	}
}

// checkShardsIdentical replays prog serially and at every shard count,
// requiring byte-identical results throughout. Shard counts above the
// node count exercise the clamp.
func checkShardsIdentical(t *testing.T, label string, plat network.Platform, tr *trace.Trace, shardCounts []int) {
	t.Helper()
	prog, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewArena().RunProgram(plat, prog)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	for _, n := range shardCounts {
		for rep := 0; rep < 2; rep++ { // second rep replays on a warm arena
			got, err := arena.RunProgramShards(plat, prog, n)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", label, n, err)
			}
			requireIdentical(t, label+"/shards="+itoa(n), serial, got)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestShardedRingByteIdentical(t *testing.T) {
	tr := allocRing(32, 12)
	plat := pdesPlatform(32, 4) // 8 ranks/node: ring alternates intra and inter hops
	checkShardsIdentical(t, "ring-block", plat, tr, []int{1, 2, 4, 8})
	// Round-robin scatters neighbours across nodes: almost every transfer
	// is inter-node, the coordinator-heavy worst case.
	checkShardsIdentical(t, "ring-rr", plat.WithMapping(network.RoundRobinMapping()), tr, []int{2, 4})
}

func TestShardedHandleReuseByteIdentical(t *testing.T) {
	// IRecv/Wait/WaitAll traffic: completePair's handle paths cross the
	// shard/coordinator boundary in both directions.
	tr := allocHandleReuse(32, 10)
	checkShardsIdentical(t, "handles", pdesPlatform(32, 4), tr, []int{2, 4})
}

func TestShardedRendezvousByteIdentical(t *testing.T) {
	// Large messages force the rendezvous path: blocking sends park until
	// the peer posts, and the evSendResume continuation crosses shards.
	n := 24
	tr := trace.New("rdv", "base", n)
	for it := 0; it < 6; it++ {
		for r := 0; r < n; r++ {
			next := (r + 1) % n
			prev := (r + n - 1) % n
			tr.Append(r, trace.Record{Kind: trace.KindCompute, Instr: int64(50_000 * (r + 1))})
			if r%2 == 0 {
				tr.Append(r, trace.Record{Kind: trace.KindSend, Peer: next, Tag: it, Bytes: 4 << 20})
				tr.Append(r, trace.Record{Kind: trace.KindRecv, Peer: prev, Tag: it, Bytes: 4 << 20})
			} else {
				tr.Append(r, trace.Record{Kind: trace.KindRecv, Peer: prev, Tag: it, Bytes: 4 << 20})
				tr.Append(r, trace.Record{Kind: trace.KindSend, Peer: next, Tag: it, Bytes: 4 << 20})
			}
		}
	}
	checkShardsIdentical(t, "rendezvous", pdesPlatform(n, 3), tr, []int{2, 3, 8})
}

// TestShardedPropertyRandomTraces is the PDES property test: random
// deadlock-free traces (mixed Recv/IRecv/Wait/WaitAll, random sizes so
// both eager and rendezvous paths fire) replay byte-identically at every
// shard count. Runs under -race in CI, where it doubles as the data-race
// proof for the two-phase schedule.
func TestShardedPropertyRandomTraces(t *testing.T) {
	shardCounts := []int{1, 2, 4, 8}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ranks := 8 + rng.Intn(25) // 8..32
		nodes := 2 + rng.Intn(4)  // 2..5
		tr := randomBalancedTrace(rng, ranks, 40+rng.Intn(80))
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: generator bug: %v", seed, err)
		}
		plat := pdesPlatform(ranks, nodes)
		if rng.Intn(2) == 1 {
			plat = plat.WithMapping(network.RoundRobinMapping())
		}
		checkShardsIdentical(t, "rand/seed="+itoa(int(seed)), plat, tr, shardCounts)
	}
}

// TestShardedFallbacks pins EffectiveShards' safety gates: anything the
// partition argument does not cover must resolve to the serial path.
func TestShardedFallbacks(t *testing.T) {
	prog, err := Compile(allocRing(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	flat := network.Testbed(8) // one rank per node, but finite intra pool semantics don't apply; Nodes=8
	if flat.Nodes < 2 {
		t.Fatalf("testbed platform unexpectedly single-node")
	}
	oneNode := pdesPlatform(8, 1)
	if got := EffectiveShards(oneNode, prog, 4); got != 1 {
		t.Fatalf("single node: EffectiveShards=%d, want 1", got)
	}
	busy := pdesPlatform(8, 2)
	busy.IntraBuses = 3 // finite intra pool: order-sensitive, must serialize
	if got := EffectiveShards(busy, prog, 4); got != 1 {
		t.Fatalf("finite intra pool: EffectiveShards=%d, want 1", got)
	}
	if got := EffectiveShards(pdesPlatform(8, 2), prog, 8); got != 2 {
		t.Fatalf("clamp to nodes: EffectiveShards=%d, want 2", got)
	}
	if got := EffectiveShards(pdesPlatform(8, 2), prog, 1); got != 1 {
		t.Fatalf("explicit serial: EffectiveShards=%d, want 1", got)
	}
	// Requesting shards on an unshardable platform must still replay
	// correctly (via the serial fallback).
	res, err := NewArena().RunProgramShards(busy, prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewArena().RunProgram(busy, prog)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "fallback", serial, res)
}

// TestEventOrderAudit pins the static total order that both engines
// execute: time first, then rank continuations before arrivals, then the
// id pair — never heap or map insertion order.
func TestEventOrderAudit(t *testing.T) {
	adv := func(t float64, r int32) event { return mkEvent(t, evAdvance, r, 0) }
	res := func(t float64, r int32) event { return mkEvent(t, evSendResume, r, 0) }
	arr := func(t float64, s, q int32) event { return mkEvent(t, evArrive, s, q) }

	ordered := []event{
		adv(1, 9), // earlier time wins regardless of kind or ids
		adv(2, 0), // at equal time: continuations first...
		res(2, 3), // ...ordered by rank id across kinds
		adv(2, 7),
		arr(2, 0, 5), // then arrivals, by (stream, seq)
		arr(2, 1, 0),
		arr(2, 1, 2),
		adv(3, 0),
	}
	for i := range ordered {
		for j := range ordered {
			got := eventBefore(&ordered[i], &ordered[j])
			if want := i < j; got != want {
				t.Fatalf("eventBefore(#%d, #%d) = %v, want %v (%+v vs %+v)", i, j, got, want, ordered[i], ordered[j])
			}
		}
	}
}

// TestEqualTimeCrossShard runs a fully symmetric workload where every
// rank hits its events at identical times — the regime where a scheduler
// that fell back to insertion order would diverge between serial and
// sharded execution. Identical bytes prove ties resolve by the static
// order alone.
func TestEqualTimeCrossShard(t *testing.T) {
	n := 32
	tr := trace.New("sym", "base", n)
	for it := 0; it < 8; it++ {
		for r := 0; r < n; r++ {
			// Identical compute on every rank: all sends of an iteration
			// are simultaneous, as are all arrivals within a link class.
			tr.Append(r, trace.Record{Kind: trace.KindCompute, Instr: 1_000_000})
			tr.Append(r, trace.Record{Kind: trace.KindISend, Peer: (r + n/2) % n, Tag: it, Bytes: 65_536})
			tr.Append(r, trace.Record{Kind: trace.KindRecv, Peer: (r + n/2) % n, Tag: it, Bytes: 65_536})
		}
	}
	checkShardsIdentical(t, "symmetric", pdesPlatform(n, 4), tr, []int{2, 4})
}

// TestShardWorkersExitWhenNeverWoken replays a ping-pong whose windows
// never have two busy shards: the coordinator drains every window itself
// and the worker goroutine is never signalled. Each replay must still
// stop its worker, so after 200 replays the goroutine count is no higher
// than at the start.
func TestShardWorkersExitWhenNeverWoken(t *testing.T) {
	prog, err := Compile(pingPong(20))
	if err != nil {
		t.Fatal(err)
	}
	plat := pdesPlatform(2, 2)
	serial, err := NewArena().RunProgram(plat, prog)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		got, err := arena.RunProgramShards(plat, prog, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st := arena.LastStats(); st.Shards != 2 || st.Windows == 0 || st.ConcurrentWindows != 0 {
			t.Fatalf("replay %d: %d shards, %d windows, %d concurrent; want 2 shards, no concurrent window",
				i, st.Shards, st.Windows, st.ConcurrentWindows)
		}
		requireIdentical(t, "pingpong", serial, got)
	}
	// stop returns once every worker has called wg.Done, its last
	// statement but not yet its exit, so a worker of an earlier replay or
	// test may still be counted in either reading. Fewer goroutines
	// afterwards is not a leak; more must drain within a second.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("goroutines %d before 200 sharded replays, %d after", before, after)
	}
}
