package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refQueue is the calendar queue's specification: every live event in one
// slice sorted by eventBefore, so the minimum is always at the front.
type refQueue []event

func (r *refQueue) push(e event) {
	i, _ := slices.BinarySearchFunc(*r, e, func(x, y event) int {
		switch {
		case eventBefore(&x, &y):
			return -1
		case eventBefore(&y, &x):
			return 1
		}
		return 0
	})
	*r = slices.Insert(*r, i, e)
}

func (r *refQueue) popBefore(bound *event, hasBound bool) (event, bool) {
	if len(*r) == 0 || hasBound && !eventBefore(&(*r)[0], bound) {
		return event{}, false
	}
	e := (*r)[0]
	*r = (*r)[1:]
	return e, true
}

// Bucket paths a push can take (see bucket.insert).
const (
	pathAppend  = iota // after every resident of a non-empty bucket
	pathHeadGap        // left side shifted into the gap before the head
	pathCompact        // full slice compacted before appending
	pathOther          // first event of a bucket, or a right shift
	numPaths
)

// pushPath classifies a push of e from its bucket's state before (b0)
// and after (b1) it. A compaction needs a head of at least 2, so it never
// looks like a head-gap shift: that keeps the length, a compaction drops
// head-1 dead slots.
func pushPath(b0, b1 bucket, e event) int {
	switch {
	case b1.head == b0.head-1 && len(b1.ev) == len(b0.ev):
		return pathHeadGap
	case b0.head > 0 && b1.head == 0 && len(b1.ev) == len(b0.ev)-b0.head+1:
		return pathCompact
	case len(b0.ev) > 0 && b1.head == b0.head && len(b1.ev) == len(b0.ev)+1 && b1.ev[len(b1.ev)-1] == e:
		return pathAppend
	}
	return pathOther
}

// Shapes of the events TestCalendarQueueMatchesSortedReference draws.
const (
	cqRanks        = 64 // ranks that own continuations
	cqStreams      = 6  // streams of the randomly keyed arrivals
	cqOrderedStrm  = 6  // the stream of pushOrdered, after every other
	cqContinuation = 4  // one push in cqContinuation is a continuation, while a rank is free
)

// TestCalendarQueueMatchesSortedReference drives the calendar queue and a
// sorted-slice reference with the same seeded operations — push, pop,
// peek, popBefore with and without a bound — and requires identical
// results after every one. Events have the replay's shape: a rank has at
// most one live continuation (an advance or a send resume, b = 0), and an
// arrival's (stream, seq) is unique, so same-time ties fall to the key
// word as they do in a replay. The pushes cover what replays produce:
// bursts of hundreds of same-time events, in random and in increasing
// key order, times below the cursor (the PDES clamp), gaps wider than the
// calendar (cursor jumps), and a population that grows through several
// rebuilds. Three shapes aim at the bucket paths: increasing-key bursts
// append, pushes just after the queue's minimum shift into the gap before
// a bucket's head, and a long steady flow through one bucket that never
// empties compacts it. Each seed reuses one queue across rounds, as an
// arena does across replays.
func TestCalendarQueueMatchesSortedReference(t *testing.T) {
	seeds, steps := int64(8), 3000
	if testing.Short() {
		seeds, steps = 3, 1500
	}
	var jumps, rebuilds, clamped, bursts int64
	var paths [numPaths]int64
	var ties [2]int64 // same-time pops: continuation after continuation, arrival after continuation
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		for round := 0; round < 3; round++ {
			q.reset()
			var ref refQueue
			now := 0.0 // time of the last popped event
			var last event
			var id int32
			var live [cqRanks]bool // ranks with a queued continuation
			pushEvent := func(e event) {
				y := q.yearOf(e.t)
				if y < q.cur {
					if q.n > 0 {
						clamped++
					}
					y = q.cur
				}
				slot := int(y) & q.mask
				b0, rb := q.buckets[slot], q.rebuilds
				q.push(e)
				ref.push(e)
				if q.rebuilds == rb {
					paths[pushPath(b0, q.buckets[slot], e)]++
				}
			}
			// push queues a continuation of a free rank or, when the draw
			// says otherwise or every rank is live, an arrival.
			push := func(tm float64) {
				id++
				if rng.Intn(cqContinuation) == 0 {
					r := rng.Intn(cqRanks)
					for i := 0; i < cqRanks && live[r]; i++ {
						r = (r + 1) % cqRanks
					}
					if !live[r] {
						live[r] = true
						kind := evAdvance
						if rng.Intn(2) == 0 {
							kind = evSendResume
						}
						pushEvent(mkEvent(tm, kind, int32(r), 0))
						return
					}
				}
				pushEvent(mkEvent(tm, evArrive, int32(rng.Intn(cqStreams)), id))
			}
			// pushOrdered pushes an event ordering after every earlier
			// pushOrdered event at the same time.
			pushOrdered := func(tm float64) {
				id++
				pushEvent(mkEvent(tm, evArrive, cqOrderedStrm, id))
			}
			check := func(op string, got, want event, gotOK, wantOK bool) {
				t.Helper()
				if gotOK != wantOK || gotOK && got != want {
					t.Fatalf("seed %d round %d: %s = %+v, %v; reference %+v, %v", seed, round, op, got, gotOK, want, wantOK)
				}
				if q.len() != len(ref) {
					t.Fatalf("seed %d round %d: after %s len = %d, reference %d", seed, round, op, q.len(), len(ref))
				}
				if gotOK && op != "peek" {
					if got.t == last.t && last.kind() != evArrive {
						if got.kind() == evArrive {
							ties[1]++
						} else {
							ties[0]++
						}
					}
					if got.kind() != evArrive {
						live[got.a()] = false
					}
					now, last = got.t, got
				}
			}
			pop := func() {
				want, wantOK := ref.popBefore(nil, false)
				got := q.pop()
				check("pop", got, want, true, wantOK)
			}
			for step := 0; step < steps; step++ {
				switch r := rng.Intn(100); {
				case r < 1: // a lockstep phase: hundreds of events at one instant
					tm := now + rng.Float64()*1e-4
					for i, n := 0, 200+rng.Intn(400); i < n; i++ {
						push(tm)
					}
					bursts++
				case r < 2: // a lockstep phase pushed in increasing key order
					tm := now + rng.Float64()*1e-4
					for i, n := 0, 200+rng.Intn(400); i < n; i++ {
						pushOrdered(tm)
					}
					bursts++
				case r < 5: // just after the minimum, near a bucket's head
					if len(ref) > 0 {
						tm := math.Nextafter(ref[0].t, math.Inf(1))
						for i, n := 0, 1+rng.Intn(8); i < n; i++ {
							push(tm)
						}
					}
				case r < 6: // a steady flow through one bucket that never empties
					tm := now + rng.Float64()*1e-5
					fill, flow := 16+rng.Intn(64), 500+rng.Intn(1000)
					for i := 0; i < fill; i++ {
						pushOrdered(tm)
					}
					for i := 0; i < flow; i++ {
						pushOrdered(tm)
						pop()
					}
				case r < 9: // beyond a gap much wider than the calendar
					push(now + 1e2 + rng.Float64()*1e5)
				case r < 17: // into the past, as PDES shards receive events
					push(now * rng.Float64())
				case r < 50:
					push(now + rng.ExpFloat64()*1e-5)
				case r < 75:
					if len(ref) > 0 {
						for i, n := 0, 1+rng.Intn(min(len(ref), 400)); i < n; i++ {
							pop()
						}
					}
				case r < 85:
					got, gotOK := q.peek()
					want, wantOK := event{}, len(ref) > 0
					if wantOK {
						want = ref[0]
					}
					check("peek", got, want, gotOK, wantOK)
				default:
					tm := now + (rng.Float64()-0.3)*1e-4
					bound := mkEvent(tm, evArrive, int32(rng.Intn(cqStreams)), int32(rng.Intn(int(id)+1)))
					if rng.Intn(3) == 0 {
						bound = mkEvent(tm, evAdvance, int32(rng.Intn(cqRanks)), 0)
					}
					hasBound := rng.Intn(5) > 0
					want, wantOK := ref.popBefore(&bound, hasBound)
					got, gotOK := q.popBefore(&bound, hasBound)
					check("popBefore", got, want, gotOK, wantOK)
				}
			}
			for len(ref) > 0 {
				pop()
			}
			if _, ok := q.peek(); ok || q.len() != 0 {
				t.Fatalf("seed %d round %d: drained queue still holds %d events", seed, round, q.len())
			}
			jumps += q.jumps
			rebuilds += q.rebuilds
		}
	}
	if jumps == 0 || rebuilds == 0 || clamped == 0 || bursts == 0 ||
		paths[pathAppend] == 0 || paths[pathHeadGap] == 0 || paths[pathCompact] == 0 ||
		ties[0] == 0 || ties[1] == 0 {
		t.Fatalf("coverage: %d cursor jumps, %d rebuilds, %d clamped pushes, %d bursts, %d appends, %d head-gap shifts, %d compactions, "+
			"%d same-time continuation pairs, %d same-time continuation-arrival pairs; want all > 0",
			jumps, rebuilds, clamped, bursts, paths[pathAppend], paths[pathHeadGap], paths[pathCompact], ties[0], ties[1])
	}
}

// fieldEvent is an event before packing, ordered field by field.
type fieldEvent struct {
	t    float64
	kind uint8
	a, b int32
}

// fieldBefore is the order events had as separate fields: time, then
// continuations before arrivals, then a, then b.
func fieldBefore(x, y fieldEvent) bool {
	if x.t != y.t {
		return x.t < y.t
	}
	xa, ya := x.kind == evArrive, y.kind == evArrive
	if xa != ya {
		return ya
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// TestEventKeyRoundTrip packs (kind, a, b) into an event and reads it
// back at both ends of each field's range, then checks on random pairs of
// the replay's shape that eventBefore on the packed key is fieldBefore.
// The pairs share times often, so the key decides most of them; two
// continuations of one rank are never drawn together, since a rank has at
// most one live continuation.
func TestEventKeyRoundTrip(t *testing.T) {
	const maxID = 1<<31 - 1
	for _, kind := range []uint8{evAdvance, evArrive, evSendResume} {
		for _, a := range []int32{0, 1, maxID} {
			bs := []int32{0}
			if kind == evArrive {
				bs = []int32{0, 1, maxID}
			}
			for _, b := range bs {
				e := mkEvent(2.5, kind, a, b)
				if e.t != 2.5 || e.kind() != kind || e.a() != a || e.b() != b {
					t.Fatalf("mkEvent(2.5, %d, %d, %d) reads back t %v kind %d a %d b %d", kind, a, b, e.t, e.kind(), e.a(), e.b())
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	draw := func() fieldEvent {
		f := fieldEvent{t: float64(rng.Intn(4))}
		a := int32(rng.Intn(8))
		if rng.Intn(4) == 0 {
			a = maxID - a
		}
		switch rng.Intn(3) {
		case 0:
			f.kind, f.a = evAdvance, a
		case 1:
			f.kind, f.a = evSendResume, a
		default:
			f.kind, f.a, f.b = evArrive, a, int32(rng.Intn(8))
			if rng.Intn(4) == 0 {
				f.b = maxID - f.b
			}
		}
		return f
	}
	var decided int
	for i := 0; i < 100000; i++ {
		x, y := draw(), draw()
		if x.kind != evArrive && y.kind != evArrive && x.a == y.a {
			continue
		}
		px, py := mkEvent(x.t, x.kind, x.a, x.b), mkEvent(y.t, y.kind, y.a, y.b)
		if got, want := eventBefore(&px, &py), fieldBefore(x, y); got != want {
			t.Fatalf("eventBefore(%+v, %+v) = %v, field order %v", x, y, got, want)
		}
		if x.t == y.t && x != y {
			decided++
		}
	}
	if decided == 0 {
		t.Fatal("no same-time pair of distinct events drawn")
	}
}
