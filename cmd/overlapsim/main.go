// Command overlapsim is the end-to-end CLI of the framework: it traces one
// application of the pool, replays the non-overlapped and both overlapped
// executions on a configurable platform, and reports timings, state
// profiles, pattern statistics, and optional timeline/trace dumps. Its
// -timeline is the paper's Figure 4 view: Paraver-style timelines of the
// three flavours, their state profiles, the overlapped transfers, the comm
// matrix, wait distributions and efficiency slices.
//
// Two bandwidth studies stress the interconnect: -needs prints the app's
// Figure 6b and 6c rows, read on metrics.BandwidthGrid around a finite
// inter-node bandwidth (-bw), and -bws the three flavours' finish at each
// listed bandwidth (the raw curves).
//
// Examples:
//
//	overlapsim -app cg -ranks 4
//	overlapsim -app sweep3d -ranks 16 -bw 125 -buses 12 -timeline
//	overlapsim -app cg -ranks 4 -width 120 -timeline -prv /tmp/cg
//	overlapsim -app pop -ranks 16 -dump-traces /tmp/pop
//	overlapsim -app cg -ranks 16 -preset marenostrum-4x -map rr
//	overlapsim -app cg -ranks 16 -platform cluster.json -dump-platform
//	overlapsim -app sweep3d -ranks 8 -needs
//	overlapsim -app bt -ranks 8 -bws 2,8,31,125,250,500,2000,8000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/paraver"
	"repro/internal/pattern"
	"repro/internal/platformflag"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// flavors lists the three executions in report order.
var flavors = []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal}

func main() {
	app := flag.String("app", "cg", "application: sweep3d|pop|alya|specfem3d|bt|cg")
	ranks := flag.Int("ranks", 16, "number of ranks")
	chunks := flag.Int("chunks", 4, "chunks per message in the overlapped traces")
	pf := platformflag.Register(flag.CommandLine)
	timeline := flag.Bool("timeline", false, "render ASCII timelines, state profiles, transfers and Paraver views")
	width := flag.Int("width", 100, "timeline width")
	dump := flag.String("dump-traces", "", "directory to write the three .dim traces")
	prv := flag.String("prv", "", "directory to write .prv files for the three runs")
	critpath := flag.Bool("critpath", false, "print the critical-path attribution of each flavour")
	whatif := flag.Bool("whatif", false, "rank buffers by what idealizing each one alone would gain")
	needs := flag.Bool("needs", false, "print the Fig. 6b/6c rows: the bandwidth each overlapped flavour may relax to, and the one the non-overlapped run needs to match it")
	bws := flag.String("bws", "", "comma-separated bandwidths (MB/s) at which to print the three flavours' finish")
	sizeScale := flag.Float64("size-scale", 1, "multiply communicated-buffer sizes")
	iterScale := flag.Float64("iter-scale", 1, "multiply iteration counts")
	workers := flag.Int("workers", 0, "experiment-engine worker pool size (0 = GOMAXPROCS)")
	tm := platformflag.RegisterTimings(flag.CommandLine)
	flag.Parse()
	defer tm.MaybeDump(os.Stderr)

	entry, ok := apps.ByNameScaled(*app, *ranks, apps.Scale{SizeScale: *sizeScale, IterScale: *iterScale})
	if !ok {
		fail(2, "unknown app %q (known: %v)", *app, apps.Names)
	}
	var bwList []float64
	if *bws != "" {
		for _, s := range strings.Split(*bws, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || !(v > 0) { // NaN fails every comparison
				fail(2, "bad bandwidth %q", s)
			}
			bwList = append(bwList, v)
		}
	}
	plat, err := pf.Resolve(*app, *ranks)
	if err != nil {
		fail(2, "%v", err)
	}
	if pf.DumpRequested() {
		if err := pf.Dump(os.Stdout, plat); err != nil {
			fail(1, "%v", err)
		}
		return
	}
	tCfg := tracer.DefaultConfig()
	tCfg.Chunks = *chunks

	ctx := context.Background()
	eng := engine.New(*workers)
	// The report and every study share one traced run, and the studies
	// reuse the report's programs, through the engine's trace cache.
	rep, err := core.Analyze(ctx, eng, eng.Traces(), entry.App, *ranks, tCfg, plat)
	if err != nil {
		fail(1, "%v", err)
	}

	fmt.Printf("app %s (%s)\n", *app, entry.Description)
	fmt.Printf("platform: %s\n", plat.Describe())
	fmt.Printf("\n%-16s %12s %12s %12s %10s %12s\n", "flavor", "finish (s)", "wait (s)", "send-blk (s)", "messages", "bytes")
	for _, f := range flavors {
		// A completed replay counts every send of the trace, so its
		// per-rank sums are the trace's message and byte totals.
		r := rep.ResultOf(f)
		var sendBlk float64
		var msgs int
		var sent int64
		for i := range r.Ranks {
			sendBlk += r.Ranks[i].SendBlockedSec
			msgs += r.Ranks[i].MsgsSent
			sent += r.Ranks[i].BytesSent
		}
		fmt.Printf("%-16s %12.6f %12.6f %12.6f %10d %12d\n",
			string(f), r.FinishSec, r.TotalWaitSec(), sendBlk, msgs, sent)
	}
	fmt.Printf("\nspeedup real=%.3f ideal=%.3f\n", rep.SpeedupReal, rep.SpeedupIdeal)
	if plat.MultiNode() {
		fmt.Println()
		fmt.Print(paraver.TrafficSummaryOf(rep.Base).Format())
	}

	fmt.Println("\npattern summary (Table II row):")
	fmt.Print(pattern.FormatTableII([]*pattern.Analysis{rep.Patterns}))

	if *timeline {
		printTimeline(rep, *app, *width)
	}
	if *critpath {
		for _, f := range flavors {
			fmt.Printf("\n[%s] ", f)
			fmt.Print(sim.CriticalPathOf(rep.ResultOf(f)).Format(8))
		}
	}
	if *whatif {
		wi, err := core.RunScenario(ctx, eng, core.Scenario{App: entry.App, Ranks: *ranks, Tracer: tCfg, Platform: plat, Output: core.OutputWhatIf, Traces: eng.Traces()})
		if err != nil {
			fail(1, "what-if: %v", err)
		}
		fmt.Println()
		fmt.Print(wi.Points[0].WhatIf.Format())
	}
	if *needs {
		n, err := core.RunBandwidthNeeds(ctx, eng, core.Scenario{App: entry.App, Ranks: *ranks, Tracer: tCfg, Platform: plat, Traces: eng.Traces()})
		if err != nil {
			fail(1, "fig6b/6c: %v", err)
		}
		names, ns := []string{*app}, []*core.BandwidthNeeds{n}
		fmt.Printf("\nFigure 6b — bandwidth needed by the overlapped execution to match the non-overlapped at %g MB/s\n", n.RefMBps)
		fmt.Print(core.FormatNeedsTable(names, ns, func(o core.OverlapNeeds) metrics.Crossing { return o.Relaxed }))
		fmt.Printf("\nFigure 6c — bandwidth the non-overlapped execution needs to match the overlapped at %g MB/s\n", n.RefMBps)
		fmt.Print(core.FormatNeedsTable(names, ns, func(o core.OverlapNeeds) metrics.Crossing { return o.Equivalent }))
	}
	if len(bwList) > 0 {
		res, err := core.RunScenario(ctx, eng, core.Scenario{
			App: entry.App, Ranks: *ranks, Tracer: tCfg, Platform: plat,
			Flavors: flavors,
			Axes:    []core.Axis{core.BandwidthAxis(bwList...)},
			Traces:  eng.Traces(),
		})
		if err != nil {
			fail(1, "bandwidth sweep: %v", err)
		}
		fmt.Printf("\n%-10s %14s %14s %14s\n", "MB/s", "base (s)", "overlap-real", "overlap-ideal")
		for i, bw := range bwList {
			fs := res.Points[i].Flavors
			fmt.Printf("%-10.1f %14.6f %14.6f %14.6f\n", bw, fs[0].FinishSec, fs[1].FinishSec, fs[2].FinishSec)
		}
	}
	if *dump != "" {
		for _, f := range flavors {
			path := filepath.Join(*dump, fmt.Sprintf("%s-%s.dim", *app, f))
			if err := writeTrace(path, rep.TraceOf(f)); err != nil {
				fail(1, "%v", err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if *prv != "" {
		for _, f := range flavors {
			path := filepath.Join(*prv, fmt.Sprintf("%s-%s.prv", *app, f))
			if err := writePRV(path, rep.ResultOf(f), *app+"/"+string(f)); err != nil {
				fail(1, "%v", err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}

// fail reports an overlapsim error on stderr and exits with code.
func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "overlapsim: "+format+"\n", args...)
	os.Exit(code)
}

// printTimeline prints the Figure 4 view of the report: the three
// timelines on the base/overlap-real scale, the state profiles, the first
// overlap-real transfers, the comm matrix, the wait distributions and the
// parallel efficiency over time (width/2 slices).
func printTimeline(rep *core.Report, app string, width int) {
	fmt.Println()
	fmt.Print(paraver.RenderComparison(rep.Base, rep.Real, app+"/base", app+"/overlap-real", width))
	fmt.Print(paraver.Render(rep.Ideal, app+"/overlap-ideal", width))
	fmt.Println()
	compared := []core.Flavor{core.FlavorBase, core.FlavorReal}
	for _, f := range compared {
		fmt.Printf("%s profile:\n", f)
		fmt.Print(paraver.ProfileOf(rep.ResultOf(f)).Format())
	}
	fmt.Println("overlap-real transfers (send -> match lines):")
	fmt.Print(paraver.CommLines(rep.Real, 12))
	fmt.Println()
	fmt.Print(paraver.CommMatrixOf(rep.Base).Format())
	fmt.Println()
	for _, f := range compared {
		fmt.Printf("%s wait distribution:\n", f)
		fmt.Print(paraver.WaitHistogram(rep.ResultOf(f), 8).Format())
	}
	for _, f := range compared {
		fmt.Printf("%-16s%s", f, paraver.FormatEfficiency(paraver.EfficiencySlices(rep.ResultOf(f), width/2)))
	}
}

func writeTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.Write(f, tr)
}

func writePRV(path string, res *sim.Result, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return paraver.WritePRV(f, res, name)
}
