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

// SearchOptions tunes MinBandwidth.
type SearchOptions struct {
	// Lo and Hi bracket the search in MB/s.
	Lo, Hi float64
	// RelTol is the relative tolerance on the returned bandwidth.
	RelTol float64
	// MaxIter bounds the bisection.
	MaxIter int
}

// DefaultSearch spans 0.01 MB/s .. 1 TB/s with 0.5% tolerance.
func DefaultSearch() SearchOptions {
	return SearchOptions{Lo: 0.01, Hi: 1e6, RelTol: 0.005, MaxIter: 200}
}

// MinBandwidth finds the minimum bandwidth at which finish(bw) <= target,
// assuming finish is non-increasing in bandwidth. It returns:
//
//   - +Inf when even an infinitely fast network cannot reach the target
//     (the Fig. 6c Sweep3D case: "tends to infinity");
//   - opts.Lo when the target is already met at the lower bracket;
//   - otherwise the bisected threshold.
func MinBandwidth(finish FinishFunc, target float64, opts SearchOptions) (float64, error) {
	if opts.Lo <= 0 || opts.Hi <= opts.Lo {
		return 0, fmt.Errorf("metrics: bad search bracket [%g, %g]", opts.Lo, opts.Hi)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 200
	}
	// Unreachable even without serialization delays?
	fInf, err := finish(math.Inf(1))
	if err != nil {
		return 0, err
	}
	if fInf > target {
		return math.Inf(1), nil
	}
	fLo, err := finish(opts.Lo)
	if err != nil {
		return 0, err
	}
	if fLo <= target {
		return opts.Lo, nil
	}
	fHi, err := finish(opts.Hi)
	if err != nil {
		return 0, err
	}
	if fHi > target {
		// Target met only beyond the bracket; report infinity rather
		// than extrapolating.
		return math.Inf(1), nil
	}
	lo, hi := opts.Lo, opts.Hi
	for i := 0; i < opts.MaxIter && (hi-lo) > opts.RelTol*hi; i++ {
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

// Series is a labelled sequence of (x, y) measurements, the unit in which
// the benchmark harness reports figure data.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Add appends one measurement.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}
