package core

import (
	"context"
	"fmt"

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
