package tracer

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/trace"
)

// edgeEv is a hand-built log event in wide form; logOf packs it through
// the encoder that Proc records with. Times are absolute virtual instants.
type edgeEv struct {
	t        int64
	kind     EvKind
	arr, idx int
	c        Comm
}

func evStore(t int64, arr, idx int) edgeEv { return edgeEv{t: t, kind: EvStore, arr: arr, idx: idx} }
func evLoad(t int64, arr, idx int) edgeEv  { return edgeEv{t: t, kind: EvLoad, arr: arr, idx: idx} }
func evSend(t int64, arr, peer, elems int) edgeEv {
	return edgeEv{t: t, kind: EvSend, arr: arr, c: Comm{Peer: peer, Tag: 1, Elems: elems}}
}
func evISend(t int64, arr, peer, elems int) edgeEv {
	return edgeEv{t: t, kind: EvISend, arr: arr, c: Comm{Peer: peer, Tag: 2, Elems: elems}}
}
func evRecv(t int64, arr, peer, elems int) edgeEv {
	return edgeEv{t: t, kind: EvRecv, arr: arr, c: Comm{Peer: peer, Tag: 1, Elems: elems}}
}
func evPost(t int64, arr, peer, elems, h int) edgeEv {
	return edgeEv{t: t, kind: EvIRecvPost, arr: arr, c: Comm{Peer: peer, Tag: 2, Elems: elems, Handle: h}}
}
func evWait(t int64, arr, h int) edgeEv {
	return edgeEv{t: t, kind: EvRecvWait, arr: arr, c: Comm{Handle: h}}
}
func evRaw(t int64, kind EvKind, peer int) edgeEv {
	return edgeEv{t: t, kind: kind, arr: -1, c: Comm{Peer: peer, Tag: 9, Elems: 1}}
}
func evColl(t int64, kind EvKind, arr, elems int) edgeEv {
	return edgeEv{t: t, kind: kind, arr: arr, c: Comm{Peer: -1, Elems: elems}}
}

// logOf builds a fresh log over arrays of the given lengths.
func logOf(rank int, final int64, lens []int, evs ...edgeEv) *Log {
	names := make([]string, len(lens))
	for i := range lens {
		names[i] = fmt.Sprintf("a%d", i)
	}
	var enc encoder
	for _, e := range evs {
		if e.kind == EvStore || e.kind == EvLoad {
			enc.access(e.t, e.kind, e.arr, e.idx)
		} else {
			enc.comm(e.t, e.kind, e.arr, e.c)
		}
	}
	log := enc.log(rank, final)
	log.ArrayLens, log.ArrayNames = lens, names
	return log
}

// checkAgainstOracle compares every builder with the two-pass oracle at
// chunk counts 1..maxChunks.
func checkAgainstOracle(t *testing.T, run *Run, maxChunks int) {
	t.Helper()
	if got, want := run.BaseTrace(), run.RefBaseTrace(); !reflect.DeepEqual(got, want) {
		t.Fatalf("base differs from the oracle:\n got %v\nwant %v", got.Ranks, want.Ranks)
	}
	half := map[string]bool{}
	for i, b := range run.BufferNames() {
		half[b] = i%2 == 1
	}
	flavors := []struct {
		name     string
		build    func(*Run) *trace.Trace
		idealFor func(string) bool
	}{
		{"overlap-real", (*Run).OverlapReal, func(string) bool { return false }},
		{"overlap-ideal", (*Run).OverlapIdeal, func(string) bool { return true }},
		{"overlap-selective", func(r *Run) *trace.Trace { return r.OverlapSelective(half) }, func(b string) bool { return half[b] }},
	}
	for k := 1; k <= maxChunks; k++ {
		v := run.WithChunks(k)
		for _, f := range flavors {
			if got, want := f.build(v), v.RefOverlap(f.name, f.idealFor); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d differs from the oracle:\n got %v\nwant %v", f.name, k, got.Ranks, want.Ranks)
			}
		}
	}
}

func runOf(logs ...*Log) *Run {
	return &Run{Name: "edge", NumRanks: len(logs), Cfg: DefaultConfig(), Logs: logs}
}

func TestBuildersMatchOracleOnEdgeCases(t *testing.T) {
	cases := map[string]*Log{
		// The second IRecv of array 0 is posted before the first is
		// waited: the first window opens only at its late wait.
		"irecv reposted before its wait": logOf(0, 100, []int{8},
			evPost(10, 0, 1, 8, 1), evLoad(12, 0, 0),
			evPost(20, 0, 1, 8, 2), evLoad(22, 0, 1),
			evWait(25, 0, 1), evLoad(27, 0, 2), evLoad(28, 0, 7),
			evWait(30, 0, 2), evLoad(40, 0, 5), evLoad(41, 0, 0)),
		// A wait for a later instance opens the window past an earlier
		// instance's own wait.
		"waits out of posting order": logOf(0, 90, []int{6},
			evPost(5, 0, 1, 6, 1), evPost(6, 0, 1, 6, 2),
			evWait(10, 0, 2), evLoad(11, 0, 3), evWait(12, 0, 1),
			evLoad(13, 0, 4), evPost(30, 0, 1, 6, 3), evLoad(31, 0, 1),
			evWait(40, 0, 3), evLoad(50, 0, 0)),
		"irecv never waited": logOf(0, 80, []int{5},
			evPost(10, 0, 1, 5, 1), evLoad(15, 0, 0), evLoad(16, 0, 4),
			evPost(40, 0, 1, 5, 2), evWait(45, 0, 2), evLoad(60, 0, 2)),
		"loads between post and wait": logOf(0, 70, []int{4},
			evPost(10, 0, 1, 4, 1), evLoad(12, 0, 0), evLoad(13, 0, 3),
			evWait(20, 0, 1), evLoad(30, 0, 1), evLoad(31, 0, 0)),
		"stores after final send": logOf(0, 60, []int{6},
			evStore(1, 0, 0), evStore(2, 0, 5), evSend(10, 0, 1, 6),
			evStore(11, 0, 1), evStore(12, 0, 2), evSend(20, 0, 1, 6),
			evStore(30, 0, 3), evStore(31, 0, 4)),
		"arrays that never communicate": logOf(0, 50, []int{4, 9, 3},
			evStore(1, 1, 8), evStore(2, 0, 0), evLoad(3, 2, 1),
			evISend(10, 0, 1, 4), evStore(11, 1, 0), evLoad(12, 1, 0),
			evRecv(20, 0, 1, 4), evLoad(21, 0, 2), evStore(22, 2, 2)),
		"collective markers": logOf(0, 40, []int{1, 1, 4},
			evStore(1, 0, 0), evColl(2, EvCollSend, 0, 1), evColl(2, EvCollRecv, 1, 1),
			evRaw(2, EvSendRaw, 1), evRaw(3, EvRecvRaw, 1), evLoad(5, 1, 0),
			evStore(6, 2, 1), evSend(8, 2, 1, 4), evRecv(9, 2, 1, 4), evLoad(12, 2, 3)),
		"equal-time comm runs": logOf(0, 100, []int{8, 8},
			evStore(3, 0, 0), evStore(7, 0, 7),
			evPost(10, 1, 1, 8, 1), evISend(10, 0, 1, 8), evRaw(10, EvSendRaw, 1),
			evRaw(10, EvRecvRaw, 1), evWait(10, 1, 1), evLoad(14, 1, 2),
			evPost(30, 1, 1, 8, 2), evISend(30, 0, 1, 8), evWait(30, 1, 2),
			evRaw(30, EvSendRaw, 1)),
		"wait at the post instant and unknown handles": logOf(0, 30, []int{3},
			evWait(1, 0, 99), evPost(5, 0, 1, 3, 1), evWait(5, 0, 1),
			evWait(6, 0, 1), evLoad(6, 0, 0), evLoad(7, 0, 2)),
		"empty rank":   logOf(0, 0, nil),
		"compute only": logOf(0, 42, []int{2}, evStore(1, 0, 0), evLoad(2, 0, 1)),
	}
	for name, log := range cases {
		t.Run(name, func(t *testing.T) {
			checkAgainstOracle(t, runOf(log, logOf(1, 5, nil)), 6)
		})
	}
}

// randomLog draws a rank log with every event kind, runs of equal-time
// comm events, reposted and never-waited IRecvs and stray waits.
func randomLog(rng *rand.Rand, rank int) *Log {
	nArr := 1 + rng.Intn(4)
	lens := make([]int, nArr)
	for i := range lens {
		lens[i] = 1 + rng.Intn(12)
	}
	var evs []edgeEv
	var clock int64
	var open []edgeEv // posted, not yet waited
	handle := 0
	for i, n := 0, 10+rng.Intn(120); i < n; i++ {
		if rng.Intn(3) == 0 {
			clock += int64(rng.Intn(6))
		}
		a := rng.Intn(nArr)
		peer := 1 - rank
		switch r := rng.Intn(20); {
		case r < 6:
			evs = append(evs, evStore(clock, a, rng.Intn(lens[a])))
		case r < 11:
			evs = append(evs, evLoad(clock, a, rng.Intn(lens[a])))
		case r == 11:
			evs = append(evs, evSend(clock, a, peer, lens[a]))
		case r == 12:
			evs = append(evs, evISend(clock, a, peer, lens[a]))
		case r == 13:
			evs = append(evs, evRecv(clock, a, peer, lens[a]))
		case r == 14:
			handle++
			p := evPost(clock, a, peer, lens[a], handle)
			evs = append(evs, p)
			open = append(open, p)
		case r == 15 && len(open) > 0:
			k := rng.Intn(len(open))
			evs = append(evs, evWait(clock, open[k].arr, open[k].c.Handle))
			open = append(open[:k], open[k+1:]...)
		case r == 15:
			evs = append(evs, evWait(clock, a, 1000+rng.Intn(3)))
		case r == 16:
			evs = append(evs, evRaw(clock, EvSendRaw, peer))
		case r == 17:
			evs = append(evs, evRaw(clock, EvRecvRaw, peer))
		case r == 18:
			evs = append(evs, evColl(clock, EvCollSend, a, lens[a]))
		default:
			evs = append(evs, evColl(clock, EvCollRecv, a, lens[a]))
		}
	}
	return logOf(rank, clock+int64(rng.Intn(10)), lens, evs...)
}

func TestBuildersMatchOracleOnRandomLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		run := runOf(randomLog(rng, 0), randomLog(rng, 1))
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkAgainstOracle(t, run, 5) })
	}
}

// freshCopy returns a run over new Log values holding the same events, so
// its comm skeletons are not filled yet.
func freshCopy(r *Run) *Run {
	v := r.WithChunks(r.Cfg.Chunks)
	for i, l := range r.Logs {
		v.Logs[i] = &Log{Rank: l.Rank, FinalClock: l.FinalClock, ArrayLens: l.ArrayLens, ArrayNames: l.ArrayNames,
			blocks: l.blocks, n: l.n, comms: l.comms}
	}
	return v
}

// TestConcurrentBuildsShareSkeleton races 8 goroutines on the first fill
// of one run's skeletons, each building real, ideal and selective traces
// at its own chunk count; every trace must equal its serial build.
func TestConcurrentBuildsShareSkeleton(t *testing.T) {
	traced, err := Trace("halo", 2, DefaultConfig(), haloApp(48, 4, 500))
	if err != nil {
		t.Fatal(err)
	}
	sel := map[string]bool{"out": true}
	build := func(r *Run) []*trace.Trace {
		return []*trace.Trace{r.OverlapReal(), r.OverlapIdeal(), r.OverlapSelective(sel), r.BaseTrace()}
	}
	const goroutines = 8
	want := make([][]*trace.Trace, goroutines)
	for g := range want {
		want[g] = build(freshCopy(traced).WithChunks(1 + g))
	}
	shared := freshCopy(traced)
	got := make([][]*trace.Trace, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = build(shared.WithChunks(1 + g))
		}()
	}
	close(start)
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want[g]) {
			t.Fatalf("goroutine %d (chunks=%d): concurrent build differs from serial", g, 1+g)
		}
	}
}
