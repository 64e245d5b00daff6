package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/trace"
)

// cloneResult deep-copies a result so it survives arena reuse.
func cloneResult(r *Result) *Result {
	return &Result{
		FinishSec: r.FinishSec,
		Ranks:     append([]RankStats(nil), r.Ranks...),
		Intervals: append([]Interval(nil), r.Intervals...),
		Comms:     append([]Comm(nil), r.Comms...),
	}
}

// programTestPlatforms exercises every resource pool and both link
// classes.
func programTestPlatforms(procs int) []network.Platform {
	flat := testCfg(procs).Platform()
	constrained := testCfg(procs)
	constrained.Buses = 3
	constrained.InPorts = 1
	constrained.OutPorts = 1
	constrained.EagerThresholdBytes = 10_000
	multi := testCfg(procs).Platform().WithNodes((procs + 1) / 2)
	multi.Intra = network.Link{LatencySec: 0.5e-6, BandwidthMBps: 5000}
	multi.IntraBuses = 2
	multi.Buses = 4
	multi.InPorts = 1
	multi.OutPorts = 1
	congested := multi.WithMapping(network.RoundRobinMapping())
	congested.CongestionFactor = 1.5
	return []network.Platform{flat, constrained.Platform(), multi, congested}
}

// TestProgramReplayEquivalence is the compiled-core keystone: replaying a
// precompiled program — through a fresh arena, a reused arena, and the
// pooled summary helper — must be byte-identical to the one-shot
// trace-replay path on every platform class.
func TestProgramReplayEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomBalancedTrace(rng, 3+rng.Intn(5), 30+rng.Intn(40))
		prog, err := Compile(tr)
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		arena := NewArena()
		for pi, plat := range programTestPlatforms(tr.NumRanks) {
			want, err := Run(plat, tr)
			if err != nil {
				t.Logf("platform %d: one-shot replay: %v", pi, err)
				return false
			}
			got, err := NewArena().RunProgram(plat, prog)
			if err != nil {
				t.Logf("platform %d: program replay: %v", pi, err)
				return false
			}
			if !reflect.DeepEqual(want, got) {
				t.Logf("platform %d: program replay diverges (finish %g vs %g)", pi, want.FinishSec, got.FinishSec)
				return false
			}
			reused, err := arena.RunProgram(plat, prog)
			if err != nil {
				t.Logf("platform %d: arena replay: %v", pi, err)
				return false
			}
			if !reflect.DeepEqual(want, reused) {
				t.Logf("platform %d: reused-arena replay diverges", pi)
				return false
			}
			sum, err := ReplaySummary(plat, prog, 1)
			if err != nil {
				t.Logf("platform %d: pooled replay: %v", pi, err)
				return false
			}
			ib, eb, im, em := want.TrafficSplit()
			if sum.FinishSec != want.FinishSec || sum.IntraBytes != ib || sum.InterBytes != eb ||
				sum.IntraMsgs != im || sum.InterMsgs != em {
				t.Logf("platform %d: summary diverges: %+v", pi, sum)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestArenaReuseByteIdentical replays A, B, A on one arena: the buffers of
// the first A replay are recycled twice in between, and the final A replay
// must still equal the first bit for bit.
func TestArenaReuseByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trA := randomBalancedTrace(rng, 6, 60)
	trB := randomBalancedTrace(rng, 4, 80)
	plat := programTestPlatforms(6)[2]
	progA, err := Compile(trA)
	if err != nil {
		t.Fatal(err)
	}
	progB, err := Compile(trB)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()

	first, err := arena.RunProgram(plat, progA)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := cloneResult(first)
	if _, err := arena.RunProgram(plat, progB); err != nil {
		t.Fatal(err)
	}
	again, err := arena.RunProgram(plat, progA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshot, cloneResult(again)) {
		t.Fatalf("arena reuse changed the result: finish %g vs %g", snapshot.FinishSec, again.FinishSec)
	}
}

func TestCompileRejectsBadTraces(t *testing.T) {
	if _, err := Compile(nil); err != ErrNilTrace {
		t.Fatalf("nil trace: got %v, want ErrNilTrace", err)
	}
	bad := trace.New("bad", "base", 2)
	bad.Append(0, trace.Record{Kind: trace.KindISend, Peer: 7, Bytes: 8})
	if _, err := Compile(bad); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range peer: got %v", err)
	}
	short := &trace.Trace{Name: "short", NumRanks: 3, Ranks: make([]trace.RankTrace, 1)}
	if _, err := Compile(short); err == nil {
		t.Fatal("missing rank streams accepted")
	}
}

// TestDeadlockReportInRange: a stalled rank whose pc sits on a real record
// names that record.
func TestDeadlockReportInRange(t *testing.T) {
	tr := trace.New("dl", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindRecv, Peer: 1, Tag: 9, Chunk: 2, Bytes: 8})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 4, Bytes: 8})
	_, err := Run(testCfg(2).Platform(), tr)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 2 || !strings.Contains(de.Blocked[0], "recv peer=1 tag=9 chunk=2") {
		t.Fatalf("blocked report: %v", de.Blocked)
	}
}

// TestDeadlockReportEndOfTrace: a pc at or past the end of the rank's
// record stream must say so instead of printing a zero-valued record
// ("compute peer=0 tag=0").
func TestDeadlockReportEndOfTrace(t *testing.T) {
	prog, err := Compile(trace.New("dl", "base", 1))
	if err != nil {
		t.Fatal(err)
	}
	got := blockedDesc(prog, 0, 0)
	if !strings.Contains(got, "at end of trace") {
		t.Fatalf("end-of-trace pc described as %q", got)
	}
	if strings.Contains(got, "peer=") {
		t.Fatalf("end-of-trace pc still formats a zero-valued record: %q", got)
	}
}
