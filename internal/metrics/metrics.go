// Package metrics holds the quantitative machinery of the evaluation
// section: speedups (Fig. 6a) and the bandwidth searches behind the
// bandwidth-relaxation (Fig. 6b) and equivalent-bandwidth (Fig. 6c)
// results.
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

// FinishFunc reports the simulated makespan of some execution at a given
// network bandwidth (MB/s). math.Inf(1) asks for the latency-only network.
type FinishFunc func(bandwidthMBps float64) (float64, error)

// The MinBandwidth search: it brackets 0.01 MB/s .. 1 TB/s and bisects
// to a 0.5% relative tolerance in at most searchMaxIter steps.
const (
	searchLo      = 0.01
	searchHi      = 1e6
	searchRelTol  = 0.005
	searchMaxIter = 200
)

// MinBandwidth finds the minimum bandwidth at which finish(bw) <= target,
// assuming finish is non-increasing in bandwidth. It returns:
//
//   - +Inf when even an infinitely fast network cannot reach the target
//     (the Fig. 6c Sweep3D case: "tends to infinity");
//   - the lower bracket, 0.01 MB/s, when the target is already met there;
//   - otherwise the bisected threshold.
func MinBandwidth(finish FinishFunc, target float64) (float64, error) {
	// Unreachable even without serialization delays?
	fInf, err := finish(math.Inf(1))
	if err != nil {
		return 0, err
	}
	if fInf > target {
		return math.Inf(1), nil
	}
	fLo, err := finish(searchLo)
	if err != nil {
		return 0, err
	}
	if fLo <= target {
		return searchLo, nil
	}
	fHi, err := finish(searchHi)
	if err != nil {
		return 0, err
	}
	if fHi > target {
		// Target met only beyond the bracket; report infinity rather
		// than extrapolating.
		return math.Inf(1), nil
	}
	lo, hi := searchLo, searchHi
	for i := 0; i < searchMaxIter && (hi-lo) > searchRelTol*hi; i++ {
		mid := math.Sqrt(lo * hi) // geometric: bandwidth spans decades
		f, err := finish(mid)
		if err != nil {
			return 0, err
		}
		if f <= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
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
