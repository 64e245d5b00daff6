package sim

// Calendar event queue: the replay's priority queue, replacing the 4-ary
// heap of the first compiled-replay engine. Events hash into time buckets
// of a fixed width; each bucket keeps its events sorted ascending by
// eventBefore from a head index, so a pop inspects and advances only the
// head of the cursor's bucket instead of sifting a heap. In the common
// regime — O(1) bucket occupancy — push and pop are constant-time. The
// degenerate lockstep case (hundreds of same-time events in one bucket
// at 256 ranks) stays cheap too: such bursts are mostly pushed in
// increasing key order and append; any other push binary-searches the
// live run and shifts whichever side of the insertion point is shorter,
// the left side moving into the dead gap before the head.
//
// The queue is EXACT: pops follow the static eventBefore order bit-for-bit
// no matter how the buckets are sized. An event's year is int(t/width),
// computed from its time at push and again at scan; the queue stores
// nothing beside the 16-byte event. Push files an event under its
// placement year: its year clamped up to the cursor (PDES shards legally
// receive events "from the past", see pdes.go; they land in the cursor's
// own year and are seen by the very next scan). The invariants speak of
// placement years; a scan reads computed years only. Three invariants
// follow:
//
//  1. Qualification agrees with placement: a scan at cursor c takes a
//     bucket's head when its computed year is <= c, which holds exactly
//     when its placement year is <= c. An unclamped event's two years are
//     one value, computed by the same float operations from the same time
//     and width, so float rounding can never disagree about a bucket
//     boundary. A clamped event's placement year is the cursor at its
//     push. The cursor never decreases between rebuilds and (invariant 2)
//     never passes a resident's placement year, so that year is still the
//     cursor; its computed year lies below it, and it qualifies at once.
//
//  2. Resident events always have placement year >= cursor, and the
//     cursor only advances past a year once no event of that year
//     remains. Push keeps it true (clamp), pops preserve it, and a
//     rebuild places every event afresh from the population's first year.
//
//  3. Placement years never invert the event order: for resident events a
//     and b with eventBefore(a, b), place(a) <= place(b). (a's own year is
//     at most b's, since the year is monotone in t. If place(a) >
//     place(b), a was clamped to a cursor beyond b's placement year:
//     while b was resident, contradicting invariant 2, or before b's
//     push, whose cursor was no lower and would have lifted b as far.)
//     Hence popping by increasing placement year, and by eventBefore
//     within a year, is the global eventBefore order — and a bucket's
//     eventBefore-minimum (its sorted head) also has its minimum
//     placement year, so qualification checks the head alone.
//
// When the cursor's year is empty the scan walks forward; if a full cycle
// over the buckets finds nothing (the replay jumped a time gap larger
// than the calendar), the scan jumps the cursor straight to the smallest
// resident year — tracked during that same walk from heads that did not
// qualify, which are unclamped, so a gap costs one bucket cycle, not a
// rebuild. Rebuilds (redistribute + re-derive the width from the observed
// event-time span) happen only when the population outgrows the bucket
// array.
//
// Buckets and their capacities persist across replays (reset only
// truncates), so a warm arena's replay stays allocation-free.

const (
	cqMinWidth   = 1e-12   // keeps year = t/width far below int64 overflow for sane times
	cqMaxBuckets = 1 << 14 // growth cap; beyond this occupancy grows linearly
	cqGrowFactor = 4       // rebuild with 2x buckets when n exceeds cqGrowFactor*buckets
	cqFarFuture  = 1 << 62 // year for times beyond integer range (defensive)
)

type eventQueue struct {
	buckets []bucket
	mask    int     // len(buckets)-1; bucket count is a power of two
	inv     float64 // 1/width
	width   float64
	cur     int64 // absolute (unwrapped) year of the scan cursor
	n       int
	scratch []event // rebuild staging, reused

	// Flight-recorder counters, single-owner like the queue itself:
	// zeroed by reset, harvested per replay (see stats.go).
	popped   int64 // events removed via pop/popBefore
	jumps    int64 // cursor gap jumps (full cycle without a hit)
	rebuilds int64 // redistributions
}

// bucket is one calendar slot: ev[head:] holds its live events sorted
// ascending by eventBefore, ev[:head] is the dead gap left by pops. An
// empty bucket always has head 0.
type bucket struct {
	ev   []event
	head int
}

// reset empties the queue, keeping every bucket's capacity. Width and
// bucket count persist too: consecutive replays of the same program see
// the same event-time distribution, so the steady state rebuilds nothing.
func (q *eventQueue) reset() {
	if q.buckets == nil {
		q.buckets = make([]bucket, 1)
		q.mask = 0
		q.width = 1
		q.inv = 1
	}
	for i := range q.buckets {
		q.buckets[i] = bucket{ev: q.buckets[i].ev[:0]}
	}
	q.cur = 0
	q.n = 0
	q.popped = 0
	q.jumps = 0
	q.rebuilds = 0
}

func (q *eventQueue) len() int { return q.n }

// yearOf maps a time to its virtual year, before cursor clamping.
// Monotone in t.
func (q *eventQueue) yearOf(t float64) int64 {
	f := t * q.inv
	if f >= cqFarFuture {
		return cqFarFuture
	}
	return int64(f)
}

// insert places e into the bucket's sorted run. An event ordering after
// every resident appends. Otherwise a binary search finds the first
// resident ordering after e, and whichever side of that point is shorter
// shifts by one: the left side into the gap before the head, the right
// side into a slot appended at the end. A full slice whose head has
// passed its middle compacts before it appends, so a bucket that never
// empties reuses its dead gap at amortized O(1) per pop instead of
// growing. eventBefore is a total order over live events, so no
// equal-keys tie exists to break.
func (b *bucket) insert(e event) {
	ev, h := b.ev, b.head
	n := len(ev)
	i := n
	if n > h && !eventBefore(&ev[n-1], &e) {
		lo, hi := h, n-1 // ev[n-1] orders after e
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if eventBefore(&e, &ev[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		i = lo
		if h > 0 && i-h < n-i {
			copy(ev[h-1:], ev[h:i])
			ev[i-1] = e
			b.head = h - 1
			return
		}
	}
	if n == cap(ev) && 2*h > n {
		n = copy(ev, ev[h:])
		ev, i, b.head = ev[:n], i-h, 0
	}
	ev = append(ev, e)
	if i < n {
		copy(ev[i+1:], ev[i:n])
		ev[i] = e
	}
	b.ev = ev
}

// popHead removes and returns the bucket's minimum event. The bucket
// must be non-empty.
func (b *bucket) popHead() event {
	e := b.ev[b.head]
	b.head++
	if b.head == len(b.ev) {
		b.ev, b.head = b.ev[:0], 0
	}
	return e
}

// push enqueues an event in the bucket of its placement year: its own
// year, clamped up to the cursor.
func (q *eventQueue) push(e event) {
	y := q.yearOf(e.t)
	if y < q.cur {
		y = q.cur
	}
	q.buckets[int(y)&q.mask].insert(e)
	q.n++
	if q.n > cqGrowFactor*len(q.buckets) && len(q.buckets) < cqMaxBuckets {
		q.rebuild(len(q.buckets) * 2)
	}
}

// scan advances the cursor to the first year holding an event and returns
// its bucket slot; the slot's head is the global eventBefore-minimum. The
// queue must be non-empty.
func (q *eventQueue) scan() int {
	for {
		minYear := int64(cqFarFuture + 1)
		for cycle := 0; cycle <= q.mask; cycle++ {
			s := int(q.cur) & q.mask
			if b := &q.buckets[s]; len(b.ev) > 0 {
				// The head is the bucket's minimum event and (invariant 3)
				// its minimum placement year.
				if y := q.yearOf(b.ev[b.head].t); y <= q.cur {
					return s
				} else if y < minYear {
					minYear = y
				}
			}
			q.cur++
		}
		// Full cycle without a hit: the population lies beyond a time gap
		// wider than the calendar. Jump straight to its first year —
		// tracked during the cycle above — and rescan (guaranteed hit).
		q.cur = minYear
		q.jumps++
	}
}

// pop removes and returns the eventBefore-minimum event. The queue must
// be non-empty.
func (q *eventQueue) pop() event {
	e := q.buckets[q.scan()].popHead()
	q.n--
	q.popped++
	return e
}

// popBefore pops the minimum event only if it orders strictly before
// bound (or unconditionally when hasBound is false). Used by PDES shards
// to drain a conservative window without a separate peek.
func (q *eventQueue) popBefore(bound *event, hasBound bool) (event, bool) {
	if q.n == 0 {
		return event{}, false
	}
	b := &q.buckets[q.scan()]
	if hasBound && !eventBefore(&b.ev[b.head], bound) {
		return event{}, false
	}
	e := b.popHead()
	q.n--
	q.popped++
	return e, true
}

// peek returns the eventBefore-minimum event without removing it, and
// false on an empty queue.
func (q *eventQueue) peek() (event, bool) {
	if q.n == 0 {
		return event{}, false
	}
	b := &q.buckets[q.scan()]
	return b.ev[b.head], true
}

// rebuild redistributes every event over nb buckets (a power of two),
// recomputing the width from the observed event-time span and resetting
// the cursor to the population's first year.
func (q *eventQueue) rebuild(nb int) {
	q.rebuilds++
	if cap(q.scratch) < q.n {
		q.scratch = make([]event, 0, q.n+q.n/2)
	}
	q.scratch = q.scratch[:0]
	minT, maxT := 0.0, 0.0
	first := true
	for i := range q.buckets {
		b := &q.buckets[i]
		for _, e := range b.ev[b.head:] {
			if first {
				minT, maxT = e.t, e.t
				first = false
			} else {
				if e.t < minT {
					minT = e.t
				}
				if e.t > maxT {
					maxT = e.t
				}
			}
			q.scratch = append(q.scratch, e)
		}
		*b = bucket{ev: b.ev[:0]}
	}
	if nb > len(q.buckets) {
		grown := make([]bucket, nb)
		copy(grown, q.buckets)
		q.buckets = grown
	}
	q.mask = nb - 1
	// Width targets O(1) occupancy: the span spread over ~n buckets. A
	// degenerate span (all events at one instant) keeps the old width.
	if span := maxT - minT; span > 0 && q.n > 0 {
		w := span / float64(q.n)
		if w < cqMinWidth {
			w = cqMinWidth
		}
		q.width = w
		q.inv = 1 / w
	}
	q.cur = 0
	if q.n > 0 {
		q.cur = q.yearOf(minT)
	}
	// The cursor sits at the population's first year, so no placement
	// clamps: every event lands in its own year.
	for _, e := range q.scratch {
		q.buckets[int(q.yearOf(e.t))&q.mask].insert(e)
	}
}
