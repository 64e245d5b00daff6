// Command sweepbw reproduces the bandwidth studies of Figure 6b and 6c and
// prints the raw finish-time-vs-bandwidth series behind them.
//
// Modes:
//
//	-mode relax   minimum bandwidth at which the overlapped execution
//	              still matches the non-overlapped one at the reference
//	              bandwidth (Fig. 6b)
//	-mode equiv   bandwidth the non-overlapped execution needs to match
//	              the overlapped one at the reference bandwidth (Fig. 6c)
//	-mode series  finish times of all three flavours across a bandwidth
//	              sweep (the raw curves)
//
// The platform flags (-preset, -platform, -nodes, -map, ...) select the
// platform whose *interconnect* the sweeps stress; -ref pins the reference
// inter-node bandwidth.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/platformflag"
	"repro/internal/service"
	"repro/internal/tracer"
)

func main() {
	app := flag.String("app", "cg", "application: sweep3d|pop|alya|specfem3d|bt|cg")
	ranks := flag.Int("ranks", 16, "number of ranks")
	mode := flag.String("mode", "relax", "relax|equiv|series")
	pf := platformflag.Register(flag.CommandLine)
	refBW := flag.Float64("ref", 0, "reference inter-node bandwidth in MB/s (0 = the resolved platform's; overrides -bw)")
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
			fmt.Fprintf(os.Stderr, "sweepbw: %v\n", err)
			os.Exit(1)
		}
		return
	}

	entry, ok := apps.ByName(*app, *ranks)
	if !ok {
		fmt.Fprintf(os.Stderr, "sweepbw: unknown app %q (known: %v)\n", *app, apps.Names)
		os.Exit(2)
	}
	ctx := context.Background()
	eng := engine.New(*workers)
	plat, err := pf.Resolve(*app, *ranks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepbw: %v\n", err)
		os.Exit(2)
	}
	if *refBW > 0 {
		plat = plat.WithInterBandwidth(*refBW)
	}
	ref := plat.Inter.BandwidthMBps
	if pf.DumpRequested() {
		if err := pf.Dump(os.Stdout, plat); err != nil {
			fmt.Fprintf(os.Stderr, "sweepbw: %v\n", err)
			os.Exit(1)
		}
		return
	}
	analyze := func() *core.Report {
		rep, err := core.Analyze(ctx, eng, entry.App, *ranks, plat, tracer.DefaultConfig())
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweepbw: %v\n", err)
			os.Exit(1)
		}
		return rep
	}

	switch *mode {
	case "relax":
		rep := analyze()
		fmt.Printf("%s: non-overlapped finish at %.0f MB/s: %.6f s\n", *app, ref, rep.Base.FinishSec)
		for _, f := range []core.Flavor{core.FlavorReal, core.FlavorIdeal} {
			bw, err := rep.RelaxedBandwidth(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweepbw: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  %-14s may relax bandwidth to %s (%.1f%% of reference)\n",
				f, metrics.FormatMBps(bw), 100*bw/ref)
		}
	case "equiv":
		rep := analyze()
		for _, f := range []core.Flavor{core.FlavorReal, core.FlavorIdeal} {
			fmt.Printf("%s: overlapped (%s) finish at %.0f MB/s: %.6f s\n",
				*app, f, ref, rep.ResultOf(f).FinishSec)
			bw, err := rep.EquivalentBandwidth(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweepbw: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  non-overlapped needs %s (%sx the reference)\n",
				metrics.FormatMBps(bw), factor(metrics.BandwidthFactor(bw, ref)))
		}
	case "series":
		var list []float64
		for _, s := range strings.Split(*bws, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || !(v > 0) { // NaN fails every comparison
				fmt.Fprintf(os.Stderr, "sweepbw: bad bandwidth %q\n", s)
				os.Exit(2)
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
			fmt.Fprintf(os.Stderr, "sweepbw: %v\n", err)
			os.Exit(1)
		}
		for i, bw := range list {
			fs := res.Points[i].Flavors
			fmt.Printf("%-10.1f %14.6f %14.6f %14.6f\n", bw, fs[0].FinishSec, fs[1].FinishSec, fs[2].FinishSec)
		}
	default:
		fmt.Fprintf(os.Stderr, "sweepbw: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

func factor(f float64) string {
	if f != f || f > 1e15 { // NaN or effectively infinite
		return "inf"
	}
	return fmt.Sprintf("%.2f", f)
}
