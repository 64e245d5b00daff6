package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refUnit is the brute-force model of one unit calendar: its busy
// intervals kept sorted by start.
type refUnit []busyInterval

// fit searches every gap: the answer is the smallest candidate start — t,
// or the end of any busy interval after t — that no interval blocks. An
// interval blocks a start c when it ends after c and begins less than hold
// after c, which is the exact comparison earliestFit makes.
func (u refUnit) fit(t, hold float64) float64 {
	cands := []float64{t}
	for _, iv := range u {
		if iv.end > t {
			cands = append(cands, iv.end)
		}
	}
	sort.Float64s(cands)
	for _, c := range cands {
		blocked := false
		for _, iv := range u {
			if iv.end > c && iv.start-c < hold {
				blocked = true
				break
			}
		}
		if !blocked {
			return c
		}
	}
	panic("the latest end is never blocked")
}

func (u refUnit) lastEnd() float64 {
	end := 0.0
	for _, iv := range u {
		end = max(end, iv.end)
	}
	return end
}

func (u *refUnit) commit(start, hold float64) {
	if hold <= 0 {
		return
	}
	*u = append(*u, busyInterval{start: start, end: start + hold})
	sort.Slice(*u, func(i, j int) bool { return (*u)[i].start < (*u)[j].start })
}

// TestUnitCalendarAgainstReference drives resource.earliestFit and commit
// on pools of one to four units with random requests, as launch does —
// probe, then commit where the probe fits — and checks every answer, per
// unit and for the pool, against the brute-force gap search. Request times
// jump backwards as well as forwards, so commits land before
// earlier-committed reservations, as a coordinator-resumed rank makes them
// during sharded replay. The run must exercise empty units, requests after
// a unit's last reservation, backfills into a gap and zero-length holds.
func TestUnitCalendarAgainstReference(t *testing.T) {
	var outOfOrder, idleAfter, backfills, zeroHolds, emptyUnits int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		units := 1 + rng.Intn(4)
		r := resource{units: make([]unitCalendar, units)}
		ref := make([]refUnit, units)
		horizon := 0.0
		for op := 0; op < 250; op++ {
			if rng.Intn(120) == 0 {
				r.reset()
				ref = make([]refUnit, units)
				horizon = 0
			}
			var tq float64
			switch rng.Intn(5) {
			case 0: // on a coarse grid, so requests meet interval edges exactly
				tq = float64(rng.Intn(int(horizon)+2)) * 0.5
			case 1: // after everything committed so far
				tq = horizon + rng.Float64()
			case 2: // far back in time
				tq = rng.Float64() * horizon / 4
			default:
				tq = rng.Float64() * (horizon + 1)
			}
			var hold float64
			switch rng.Intn(6) {
			case 0:
				hold = 0
				zeroHolds++
			case 1:
				hold = float64(1+rng.Intn(4)) * 0.5
			default:
				hold = rng.Float64() * 2
			}

			bestU, bestT := -1, 0.0
			for i := range ref {
				want := ref[i].fit(tq, hold)
				if got := r.units[i].earliestFit(tq, hold); got != want {
					t.Fatalf("seed %d op %d unit %d: earliestFit(%v, %v) = %v, reference %v over %v",
						seed, op, i, tq, hold, got, want, ref[i])
				}
				if len(ref[i]) == 0 {
					emptyUnits++
				} else if tq >= ref[i].lastEnd() {
					idleAfter++
				}
				if bestU < 0 || want < bestT {
					bestU, bestT = i, want
				}
			}
			u, start := r.earliestFit(tq, hold)
			if u != bestU || start != bestT {
				t.Fatalf("seed %d op %d: pool earliestFit(%v, %v) = unit %d at %v, reference unit %d at %v",
					seed, op, tq, hold, u, start, bestU, bestT)
			}
			if hold > 0 && len(ref[u]) > 0 {
				if start+hold <= ref[u].lastEnd() {
					backfills++
				}
				if start < ref[u][len(ref[u])-1].start {
					outOfOrder++
				}
			}
			r.commit(u, start, hold)
			ref[u].commit(start, hold)
			horizon = max(horizon, start+hold)
		}
	}
	if outOfOrder == 0 || idleAfter == 0 || backfills == 0 || zeroHolds == 0 || emptyUnits == 0 {
		t.Fatalf("coverage: %d out-of-order commits, %d requests after a unit's last end, %d backfills, %d zero holds, %d empty-unit probes",
			outOfOrder, idleAfter, backfills, zeroHolds, emptyUnits)
	}
}
