// Command sweepbw reproduces the bandwidth studies of Figure 6b and 6c and
// prints the raw finish-time-vs-bandwidth series behind them.
//
// Modes:
//
//	-mode relax   bandwidth at which the overlapped execution still
//	              matches the non-overlapped one at the reference
//	              bandwidth (Fig. 6b)
//	-mode equiv   bandwidth the non-overlapped execution needs to match
//	              the overlapped one at the reference bandwidth (Fig. 6c)
//	-mode series  finish times of all three flavours across a bandwidth
//	              sweep (the raw curves)
//
// relax and equiv read all three flavours on one grid around a finite
// reference (metrics.BandwidthGrid): each answer is the first grid
// bandwidth that matches, the lowest from which every faster one does,
// and the curve's largest rise between adjacent grid points.
//
// The platform flags (-preset, -platform, -nodes, -map, ...) select the
// platform whose *interconnect* the sweeps stress; its inter-node
// bandwidth (-bw) is the reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/platformflag"
	"repro/internal/service"
)

func main() {
	app := flag.String("app", "cg", "application: sweep3d|pop|alya|specfem3d|bt|cg")
	ranks := flag.Int("ranks", 16, "number of ranks")
	mode := flag.String("mode", "relax", "relax|equiv|series")
	pf := platformflag.Register(flag.CommandLine)
	bws := flag.String("bws", "2,8,31,125,250,500,2000,8000", "comma-separated bandwidths for -mode series")
	workers := flag.Int("workers", 0, "experiment-engine worker pool size (0 = GOMAXPROCS)")
	scenarioPath := flag.String("scenario", "", "run a declarative scenario spec (JSON, the POST /v1/scenarios schema) instead of -mode")
	scenarioJSON := flag.Bool("scenario-json", false, "with -scenario, print the raw result JSON instead of the point table")
	tm := platformflag.RegisterTimings(flag.CommandLine)
	flag.Parse()
	defer tm.MaybeDump(os.Stderr)

	if *scenarioPath != "" {
		// Unless -scenario-json asks for the batch JSON, the table prints
		// incrementally: each grid point appears the moment it (and its
		// predecessors) finish simulating.
		if err := service.RunScenarioFile(context.Background(), *scenarioPath, service.Options{Engine: engine.New(*workers)}, *scenarioJSON, os.Stdout); err != nil {
			fail(1, "%v", err)
		}
		return
	}

	entry, ok := apps.ByName(*app, *ranks)
	if !ok {
		fail(2, "unknown app %q (known: %v)", *app, apps.Names)
	}
	ctx := context.Background()
	eng := engine.New(*workers)
	plat, err := pf.Resolve(*app, *ranks)
	if err != nil {
		fail(2, "%v", err)
	}
	ref := plat.Inter.BandwidthMBps
	if pf.DumpRequested() {
		if err := pf.Dump(os.Stdout, plat); err != nil {
			fail(1, "%v", err)
		}
		return
	}
	// cell renders a bandwidth with its factor over the reference, and
	// crossing one answer: where the curve matches, and how jagged it is.
	cell := func(bw float64) string {
		return fmt.Sprintf("%s (%sx)", metrics.FormatMBps(bw), metrics.FormatFactor(metrics.BandwidthFactor(bw, ref)))
	}
	crossing := func(c metrics.Crossing) string {
		if math.IsInf(c.First, 1) { // then Holding is too
			return fmt.Sprintf("%s; largest rise %.1f%%", cell(c.First), 100*c.Rise)
		}
		return fmt.Sprintf("first %s, holding from %s; largest rise %.1f%%", cell(c.First), cell(c.Holding), 100*c.Rise)
	}

	switch *mode {
	case "relax", "equiv":
		n, err := core.RunBandwidthNeeds(ctx, eng, core.Scenario{App: entry.App, Ranks: *ranks, Platform: plat, Traces: eng.Traces()})
		if err != nil {
			fail(1, "%v", err)
		}
		if *mode == "relax" {
			fmt.Printf("%s: non-overlapped finish at %.0f MB/s: %.6f s\n", *app, ref, n.BaseFinishSec)
		}
		for _, o := range []core.OverlapNeeds{n.Real, n.Ideal} {
			if *mode == "relax" {
				fmt.Printf("  %-14s may relax bandwidth to: %s\n", o.Flavor, crossing(o.Relaxed))
			} else {
				fmt.Printf("%s: overlapped (%s) finish at %.0f MB/s: %.6f s\n", *app, o.Flavor, ref, o.FinishSec)
				fmt.Printf("  non-overlapped needs: %s\n", crossing(o.Equivalent))
			}
		}
		fmt.Printf("grid: %s\n", metrics.DescribeGrid())
	case "series":
		var list []float64
		for _, s := range strings.Split(*bws, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || !(v > 0) { // NaN fails every comparison
				fail(2, "bad bandwidth %q", s)
			}
			list = append(list, v)
		}
		fmt.Printf("%-10s %14s %14s %14s\n", "MB/s", "base (s)", "overlap-real", "overlap-ideal")
		// One bandwidth-axis scenario measures all three flavours: the
		// app is traced once and every (bandwidth, flavour) replay fans
		// out across the engine.
		res, err := core.RunScenario(ctx, eng, core.Scenario{
			App: entry.App, Ranks: *ranks, Platform: plat,
			Flavors: []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal},
			Axes:    []core.Axis{core.BandwidthAxis(list...)},
		})
		if err != nil {
			fail(1, "%v", err)
		}
		for i, bw := range list {
			fs := res.Points[i].Flavors
			fmt.Printf("%-10.1f %14.6f %14.6f %14.6f\n", bw, fs[0].FinishSec, fs[1].FinishSec, fs[2].FinishSec)
		}
	default:
		fail(2, "unknown mode %q", *mode)
	}
}

// fail reports a sweepbw error on stderr and exits with code.
func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweepbw: "+format+"\n", args...)
	os.Exit(code)
}
