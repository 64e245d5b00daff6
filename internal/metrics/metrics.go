// Package metrics holds the quantitative machinery of the evaluation
// section: speedups (Fig. 6a), and the bandwidth grid and curve reduction
// behind the bandwidth-relaxation (Fig. 6b) and equivalent-bandwidth
// (Fig. 6c) results.
package metrics

import (
	"fmt"
	"math"
)

// Speedup returns base/variant, the paper's speedup definition: how many
// times faster the (overlapped) variant finishes compared with the
// (non-overlapped) base.
func Speedup(baseFinish, variantFinish float64) float64 {
	if variantFinish <= 0 {
		return math.Inf(1)
	}
	return baseFinish / variantFinish
}

// BandwidthGrid has gridSteps points per doubling, and GridRef (the
// reference's index) points on either side of the reference.
const (
	gridSteps = 8
	GridRef   = 6 * gridSteps
)

// BandwidthGrid returns the bandwidths (MB/s) the Fig. 6b/6c answers are
// read on: ref·2^(k/8) for k = −48…48, then +Inf; 98 points, 3.91 to
// 16,000 MB/s at a 250 MB/s reference. ref must be finite and positive.
func BandwidthGrid(ref float64) ([]float64, error) {
	if !(ref > 0) || math.IsInf(ref, 1) {
		return nil, fmt.Errorf("metrics: reference bandwidth %g MB/s, must be finite and positive", ref)
	}
	grid := make([]float64, 0, 2*GridRef+2)
	for k := -GridRef; k <= GridRef; k++ {
		grid = append(grid, ref*math.Pow(2, float64(k)/gridSteps))
	}
	return append(grid, math.Inf(1)), nil
}

// DescribeGrid states BandwidthGrid for report legends.
func DescribeGrid() string {
	return fmt.Sprintf("reference x 2^(k/%d) for k = %d..%d, and inf (%d bandwidths)", gridSteps, -GridRef, GridRef, 2*GridRef+2)
}

// CurvePoint is one point of a finish-vs-bandwidth curve. A non-empty
// Fault says the replay stalled on injected faults: it has no finish.
type CurvePoint struct {
	BandwidthMBps, FinishSec float64
	Fault                    string
}

// Crossing is what a finish-vs-bandwidth curve says about a target
// finish; a point meets the target when its finish is at most the target.
// First is the lowest finite grid bandwidth that meets it, and Holding
// the lowest from which every higher grid point, +Inf included, meets it;
// both are +Inf when no finite grid bandwidth does. Rise is the largest
// slowdown between adjacent grid points, as a fraction of the lower
// bandwidth's finish (0 on a curve that never rises).
type Crossing struct {
	First, Holding, Rise float64
}

// CrossingOf reads a curve, ascending in bandwidth, against a target
// finish without assuming the curve monotone: first-come port and bus
// grants make some steps to more bandwidth slower (a list-scheduling
// timing anomaly). A Fault point is an error, never a finish that meets
// the target.
func CrossingOf(curve []CurvePoint, target float64) (Crossing, error) {
	c := Crossing{First: math.Inf(1), Holding: math.Inf(1)}
	holds := true // every point above the current one meets the target
	for i := len(curve) - 1; i >= 0; i-- {
		p := curve[i]
		if p.Fault != "" {
			return Crossing{}, fmt.Errorf("metrics: no finish at %g MB/s: %s", p.BandwidthMBps, p.Fault)
		}
		meets := p.FinishSec <= target
		holds = holds && meets
		if finite := !math.IsInf(p.BandwidthMBps, 1); finite && meets {
			c.First = p.BandwidthMBps
			if holds {
				c.Holding = p.BandwidthMBps
			}
		}
		if i > 0 && curve[i-1].FinishSec > 0 {
			c.Rise = max(c.Rise, p.FinishSec/curve[i-1].FinishSec-1)
		}
	}
	return c, nil
}

// BandwidthFactor expresses a bandwidth threshold relative to a reference:
// >1 means "needs that many times more bandwidth than the reference".
// Infinite thresholds stay infinite.
func BandwidthFactor(threshold, reference float64) float64 {
	if math.IsInf(threshold, 1) {
		return math.Inf(1)
	}
	if reference <= 0 {
		return math.NaN()
	}
	return threshold / reference
}

// FormatMBps renders a bandwidth for reports, using the paper's "tends to
// infinity" wording for unbounded results.
func FormatMBps(bw float64) string {
	if math.IsInf(bw, 1) {
		return "inf (not reachable at any bandwidth)"
	}
	return fmt.Sprintf("%.2f MB/s", bw)
}

// FormatFactor renders a BandwidthFactor: two decimals, or "inf".
func FormatFactor(f float64) string {
	if math.IsInf(f, 1) || math.IsNaN(f) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", f)
}
