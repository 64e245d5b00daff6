package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpeedup(t *testing.T) {
	if got := Speedup(2, 1); got != 2 {
		t.Errorf("Speedup(2,1)=%v", got)
	}
	if got := Speedup(1, 2); got != 0.5 {
		t.Errorf("Speedup(1,2)=%v", got)
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Error("zero variant time must give +Inf")
	}
}

// curveOf pairs bandwidths with finishes.
func curveOf(bws, fins []float64) []CurvePoint {
	c := make([]CurvePoint, len(bws))
	for i := range bws {
		c[i] = CurvePoint{BandwidthMBps: bws[i], FinishSec: fins[i]}
	}
	return c
}

// analyticCurve models finish = fixed + volume/bw, the exact shape of a
// bandwidth-bound execution, on the grid.
func analyticCurve(grid []float64, fixed, volume float64) []CurvePoint {
	c := make([]CurvePoint, len(grid))
	for i, bw := range grid {
		c[i] = CurvePoint{BandwidthMBps: bw, FinishSec: fixed + volume/bw}
	}
	return c
}

func TestBandwidthGrid(t *testing.T) {
	grid, err := BandwidthGrid(250)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 98 {
		t.Fatalf("grid has %d points, want 98", len(grid))
	}
	if grid[GridRef] != 250 || grid[GridRef+8] != 500 || grid[GridRef-8] != 125 {
		t.Fatalf("grid misses the reference or its octaves: %g, %g, %g", grid[GridRef], grid[GridRef+8], grid[GridRef-8])
	}
	if lo, hi := grid[0], grid[len(grid)-2]; math.Abs(lo-3.90625) > 1e-9 || math.Abs(hi-16000) > 1e-9 {
		t.Fatalf("grid spans %g..%g MB/s, want 3.90625..16000", lo, hi)
	}
	if !math.IsInf(grid[len(grid)-1], 1) {
		t.Fatalf("grid ends at %g, want +Inf", grid[len(grid)-1])
	}
	for i := 1; i < len(grid); i++ {
		if !(grid[i-1] < grid[i]) {
			t.Fatalf("grid not ascending at %d: %g, %g", i, grid[i-1], grid[i])
		}
	}
}

// TestBandwidthGridRefusesNonFiniteReference: a reference that is not
// finite and positive anchors no grid.
func TestBandwidthGridRefusesNonFiniteReference(t *testing.T) {
	for _, ref := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -250} {
		if _, err := BandwidthGrid(ref); err == nil || !strings.Contains(err.Error(), "finite and positive") {
			t.Errorf("reference %g: err %v, want a refusal", ref, err)
		}
	}
}

// TestCrossingOfJaggedCurve: the first crossing, the holding threshold
// and the largest rise of a curve that rises twice with bandwidth.
func TestCrossingOfJaggedCurve(t *testing.T) {
	inf := math.Inf(1)
	c := curveOf([]float64{10, 20, 40, 80, 160, 320, inf},
		[]float64{9, 6, 4.5, 5.4, 4, 4.2, 3.5})
	got, err := CrossingOf(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 40 MB/s meets 5 s first, 80 MB/s rises above it (+20%), and from
	// 160 MB/s on every point, 320's 5% rise and +Inf included, meets it.
	want := Crossing{First: 40, Holding: 160, Rise: 0.2}
	if got.First != want.First || got.Holding != want.Holding || math.Abs(got.Rise-want.Rise) > 1e-12 {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestCrossingNeverMet(t *testing.T) {
	inf := math.Inf(1)
	got, err := CrossingOf(curveOf([]float64{10, 100, inf}, []float64{9, 7, 6}), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.First, 1) || !math.IsInf(got.Holding, 1) || got.Rise != 0 {
		t.Fatalf("got %+v, want +Inf answers on a falling curve", got)
	}
}

func TestCrossingMetOnlyAtInf(t *testing.T) {
	inf := math.Inf(1)
	got, err := CrossingOf(curveOf([]float64{10, 100, inf}, []float64{9, 7, 4}), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.First, 1) || !math.IsInf(got.Holding, 1) {
		t.Fatalf("got %+v: no finite grid bandwidth meets the target", got)
	}
}

func TestCrossingMetAtLowestPoint(t *testing.T) {
	grid, err := BandwidthGrid(250)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CrossingOf(analyticCurve(grid, 0.1, 0.001), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.First != grid[0] || got.Holding != grid[0] || got.Rise != 0 {
		t.Fatalf("got %+v, want both answers at the lowest grid point %g", got, grid[0])
	}
}

// TestCrossingRefusesFaultRow: a stalled replay (FinishSec 0) would meet
// every target; it must fail the reduction instead.
func TestCrossingRefusesFaultRow(t *testing.T) {
	inf := math.Inf(1)
	c := curveOf([]float64{10, 100, inf}, []float64{9, 0, 4})
	c[1].Fault = "deadlock: ranks 0 and 1 severed"
	if got, err := CrossingOf(c, 5); err == nil || !strings.Contains(err.Error(), "severed") {
		t.Fatalf("got %+v, err %v: a fault row must fail with its fault", got, err)
	}
}

// TestPropertyCrossingMatchesAnalytic: on finish = fixed + volume/bw, a
// monotone curve, both answers are the lowest grid point at or above the
// analytic threshold volume/(target-fixed), and the curve never rises.
func TestPropertyCrossingMatchesAnalytic(t *testing.T) {
	grid, err := BandwidthGrid(250)
	if err != nil {
		t.Fatal(err)
	}
	f := func(fixedRaw, volRaw, margRaw uint16) bool {
		fixed := float64(fixedRaw%100)/10 + 0.1
		volume := float64(volRaw%10000) + 1
		target := fixed + float64(margRaw%50)/10 + 0.1
		threshold := volume / (target - fixed)
		want := math.Inf(1) // the lowest finite grid point at or above threshold
		for _, bw := range grid[:len(grid)-1] {
			if math.Abs(bw-threshold) <= 1e-9*threshold {
				return true // on a grid point, rounding decides the tie
			}
			if bw > threshold {
				want = bw
				break
			}
		}
		got, err := CrossingOf(analyticCurve(grid, fixed, volume), target)
		return err == nil && got.First == want && got.Holding == want && got.Rise == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthFactor(t *testing.T) {
	if got := BandwidthFactor(500, 250); got != 2 {
		t.Errorf("factor=%v, want 2", got)
	}
	if !math.IsInf(BandwidthFactor(math.Inf(1), 250), 1) {
		t.Error("infinite threshold must keep infinite factor")
	}
	if !math.IsNaN(BandwidthFactor(10, 0)) {
		t.Error("zero reference must give NaN")
	}
}

func TestFormatMBps(t *testing.T) {
	if got := FormatMBps(11.75); got != "11.75 MB/s" {
		t.Errorf("got %q", got)
	}
	if got := FormatMBps(math.Inf(1)); got != "inf (not reachable at any bandwidth)" {
		t.Errorf("got %q", got)
	}
}

func TestFormatFactor(t *testing.T) {
	for f, want := range map[float64]string{2: "2.00", 0.949: "0.95", math.Inf(1): "inf"} {
		if got := FormatFactor(f); got != want {
			t.Errorf("FormatFactor(%g) = %q, want %q", f, got, want)
		}
	}
	if got := FormatFactor(BandwidthFactor(10, 0)); got != "inf" {
		t.Errorf("FormatFactor(NaN) = %q, want inf", got)
	}
}
