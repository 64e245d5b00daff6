package metrics

import (
	"errors"
	"math"
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

// analyticFinish models finish = fixed + volume/bw: the exact shape of a
// bandwidth-bound execution.
func analyticFinish(fixed, volume float64) FinishFunc {
	return func(bw float64) (float64, error) {
		if math.IsInf(bw, 1) {
			return fixed, nil
		}
		return fixed + volume/bw, nil
	}
}

func TestMinBandwidthFindsThreshold(t *testing.T) {
	// finish = 1 + 100/bw; target 2 -> threshold at bw = 100.
	f := analyticFinish(1, 100)
	got, err := MinBandwidth(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-100)/100 > 0.01 {
		t.Fatalf("threshold=%g, want ~100", got)
	}
}

func TestMinBandwidthUnreachableIsInf(t *testing.T) {
	// Even at infinite bandwidth finish=5 > target=2.
	f := analyticFinish(5, 100)
	got, err := MinBandwidth(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("want +Inf, got %g", got)
	}
}

func TestMinBandwidthAlreadyMetAtLowerBracket(t *testing.T) {
	f := analyticFinish(0.1, 0.001)
	got, err := MinBandwidth(f, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != searchLo {
		t.Fatalf("want the lower bracket %g, got %g", searchLo, got)
	}
}

func TestMinBandwidthBeyondUpperBracketIsInf(t *testing.T) {
	// Threshold would be 1e8 MB/s, beyond Hi=1e6: report infinity.
	f := analyticFinish(1, 1e8)
	got, err := MinBandwidth(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("want +Inf for out-of-bracket threshold, got %g", got)
	}
}

func TestMinBandwidthPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	f := func(bw float64) (float64, error) { return 0, boom }
	if _, err := MinBandwidth(f, 1); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestPropertyMinBandwidthMatchesAnalytic(t *testing.T) {
	// For finish = fixed + volume/bw and target > fixed the threshold is
	// volume/(target-fixed); the search must land within tolerance.
	f := func(fixedRaw, volRaw, margRaw uint16) bool {
		fixed := float64(fixedRaw%100)/10 + 0.1
		volume := float64(volRaw%10000) + 1
		target := fixed + float64(margRaw%50)/10 + 0.1
		want := volume / (target - fixed)
		if want < 0.01 || want > 1e6 {
			return true // outside bracket: covered by other tests
		}
		got, err := MinBandwidth(analyticFinish(fixed, volume), target)
		if err != nil {
			return false
		}
		return got >= want*0.98 && got <= want*1.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
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
