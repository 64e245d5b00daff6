package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/engine"
	"repro/internal/metrics"
)

// BandwidthNeeds answers the paper's network-design questions for one
// application on one platform, on metrics.BandwidthGrid of its inter-node
// bandwidth RefMBps: how far overlap lets that bandwidth drop (Fig. 6b),
// and what the non-overlapped execution needs to keep up (Fig. 6c). Base
// is the non-overlapped curve, and BaseFinishSec its finish at RefMBps.
type BandwidthNeeds struct {
	RefMBps       float64
	Base          []metrics.CurvePoint
	BaseFinishSec float64
	Real, Ideal   OverlapNeeds
}

// OverlapNeeds is what the grid says about one overlapped flavor: its
// curve, its finish at the reference, Relaxed (Fig. 6b: the curve read
// against the base finish at the reference) and Equivalent (Fig. 6c: the
// base curve read against FinishSec; +Inf is the Sweep3D result).
type OverlapNeeds struct {
	Flavor              Flavor
	Curve               []metrics.CurvePoint
	FinishSec           float64
	Relaxed, Equivalent metrics.Crossing
}

// RunBandwidthNeeds runs the Fig. 6b/6c study of sc's workload on
// sc.Platform through RunScenario: one bandwidth axis over the grid (it
// swaps only the interconnect bandwidth) measuring all three flavors, so
// three curves serve four answers. sc must leave its flavors, axes and
// output to the study. A reference that is not finite and positive, or a
// grid point whose replay stalled on injected faults, is an error.
func RunBandwidthNeeds(ctx context.Context, eng *engine.Engine, sc Scenario) (*BandwidthNeeds, error) {
	if len(sc.Flavors) > 0 || len(sc.Axes) > 0 || sc.Output != "" {
		return nil, fmt.Errorf("core: a bandwidth-needs study sets its own flavors, axes and output")
	}
	ref := sc.Platform.Inter.BandwidthMBps
	grid, err := metrics.BandwidthGrid(ref)
	if err != nil {
		return nil, err
	}
	sc.Flavors, sc.Axes = flavors, []Axis{BandwidthAxis(grid...)}
	res, err := RunScenario(ctx, eng, sc)
	if err != nil {
		return nil, err
	}
	var curves [3][]metrics.CurvePoint
	for k := range curves {
		curves[k] = make([]metrics.CurvePoint, len(grid))
		for i, pt := range res.Points {
			m := pt.Flavors[k]
			curves[k][i] = metrics.CurvePoint{BandwidthMBps: grid[i], FinishSec: m.FinishSec, Fault: m.Fault}
		}
	}
	n := &BandwidthNeeds{RefMBps: ref, Base: curves[0], BaseFinishSec: curves[0][metrics.GridRef].FinishSec}
	for k, o := range []*OverlapNeeds{&n.Real, &n.Ideal} {
		o.Flavor, o.Curve = flavors[k+1], curves[k+1]
		o.FinishSec = o.Curve[metrics.GridRef].FinishSec
		if o.Relaxed, err = metrics.CrossingOf(o.Curve, n.BaseFinishSec); err != nil {
			return nil, fmt.Errorf("core: %s curve: %w", o.Flavor, err)
		}
		if o.Equivalent, err = metrics.CrossingOf(n.Base, o.FinishSec); err != nil {
			return nil, fmt.Errorf("core: %s curve: %w", FlavorBase, err)
		}
	}
	return n, nil
}

// FormatNeedsTable renders a Fig. 6b/6c table of the crossing pick reads
// (OverlapNeeds.Relaxed for 6b, Equivalent for 6c): the grid legend, the
// column header, then a row per study and overlapped flavor, labelled
// with names[i]. A row gives the first crossing and the holding
// threshold, each with its factor over the study's reference (one cell
// across both when no finite grid bandwidth matches), then the curve's
// largest rise.
func FormatNeedsTable(names []string, needs []*BandwidthNeeds, pick func(OverlapNeeds) metrics.Crossing) string {
	var b strings.Builder
	fmt.Fprintf(&b, "grid: %s\n", metrics.DescribeGrid())
	b.WriteString("first = lowest grid bandwidth that matches; holding = lowest from which every faster one matches; rise = largest slowdown of one grid step up\n")
	fmt.Fprintf(&b, "%-12s %-14s %26s %26s %8s\n", "app", "flavor", "first (x ref)", "holding (x ref)", "rise")
	for i, n := range needs {
		cell := func(bw float64) string {
			return metrics.FormatMBps(bw) + " (" + metrics.FormatFactor(metrics.BandwidthFactor(bw, n.RefMBps)) + "x)"
		}
		for _, o := range []OverlapNeeds{n.Real, n.Ideal} {
			c := pick(o)
			bws := fmt.Sprintf("%26s %26s", cell(c.First), cell(c.Holding))
			if math.IsInf(c.First, 1) { // then Holding is too
				bws = fmt.Sprintf("%53s", metrics.FormatMBps(c.First))
			}
			fmt.Fprintf(&b, "%-12s %-14s %s %7.1f%%\n", names[i], o.Flavor, bws, 100*c.Rise)
		}
	}
	return b.String()
}
