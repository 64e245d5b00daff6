// Command overlapsim is the end-to-end CLI of the framework: it traces one
// application of the pool, replays the non-overlapped and both overlapped
// executions on a configurable platform, and reports timings, state
// profiles, pattern statistics, and optional timeline/trace dumps.
//
// Examples:
//
//	overlapsim -app cg -ranks 4
//	overlapsim -app sweep3d -ranks 16 -bw 125 -buses 12 -timeline
//	overlapsim -app pop -ranks 16 -dump-traces /tmp/pop
//	overlapsim -app cg -ranks 16 -preset marenostrum-4x -map rr
//	overlapsim -app cg -ranks 16 -platform cluster.json -dump-platform
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/paraver"
	"repro/internal/pattern"
	"repro/internal/platformflag"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

func main() {
	app := flag.String("app", "cg", "application: sweep3d|pop|alya|specfem3d|bt|cg")
	ranks := flag.Int("ranks", 16, "number of ranks")
	chunks := flag.Int("chunks", 4, "chunks per message in the overlapped traces")
	pf := platformflag.Register(flag.CommandLine)
	timeline := flag.Bool("timeline", false, "render ASCII timelines")
	width := flag.Int("width", 100, "timeline width")
	dump := flag.String("dump-traces", "", "directory to write the three .dim traces")
	prv := flag.String("prv", "", "directory to write .prv files for the three runs")
	critpath := flag.Bool("critpath", false, "print the critical-path attribution of each flavour")
	whatif := flag.Bool("whatif", false, "rank buffers by what idealizing each one alone would gain")
	sizeScale := flag.Float64("size-scale", 1, "multiply communicated-buffer sizes")
	iterScale := flag.Float64("iter-scale", 1, "multiply iteration counts")
	workers := flag.Int("workers", 0, "experiment-engine worker pool size (0 = GOMAXPROCS)")
	flag.Parse()

	entry, ok := apps.ByNameScaled(*app, *ranks, apps.Scale{SizeScale: *sizeScale, IterScale: *iterScale})
	if !ok {
		fmt.Fprintf(os.Stderr, "overlapsim: unknown app %q (known: %v)\n", *app, apps.Names)
		os.Exit(2)
	}
	plat, err := pf.Resolve(*app, *ranks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "overlapsim: %v\n", err)
		os.Exit(2)
	}
	if pf.DumpRequested() {
		if err := pf.Dump(os.Stdout, plat); err != nil {
			fmt.Fprintf(os.Stderr, "overlapsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	tCfg := tracer.DefaultConfig()
	tCfg.Chunks = *chunks

	ctx := context.Background()
	eng := engine.New(*workers)
	rep, err := core.Analyze(ctx, eng, entry.App, *ranks, plat, tCfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "overlapsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("app %s (%s)\n", *app, entry.Description)
	fmt.Printf("platform: %s\n", plat.Describe())
	fmt.Printf("\n%-16s %12s %12s %12s %10s %12s\n", "flavor", "finish (s)", "wait (s)", "send-blk (s)", "messages", "bytes")
	for _, f := range []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal} {
		r := rep.ResultOf(f)
		st := rep.TraceOf(f).Stats()
		var sendBlk float64
		for i := range r.Ranks {
			sendBlk += r.Ranks[i].SendBlockedSec
		}
		fmt.Printf("%-16s %12.6f %12.6f %12.6f %10d %12d\n",
			string(f), r.FinishSec, r.TotalWaitSec(), sendBlk, st.Messages, st.BytesSent)
	}
	fmt.Printf("\nspeedup real=%.3f ideal=%.3f\n", rep.SpeedupReal, rep.SpeedupIdeal)
	if plat.MultiNode() {
		fmt.Println()
		fmt.Print(paraver.TrafficSummaryOf(rep.Base).Format())
	}

	fmt.Println("\npattern summary (Table II row):")
	fmt.Print(pattern.FormatTableII([]*pattern.Analysis{rep.Patterns}))

	if *timeline {
		fmt.Println()
		fmt.Print(paraver.RenderComparison(rep.Base, rep.Real, *app+"/base", *app+"/overlap-real", *width))
		fmt.Print(paraver.Render(rep.Ideal, *app+"/overlap-ideal", *width))
	}
	if *critpath {
		for _, f := range []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal} {
			fmt.Printf("\n[%s] ", f)
			fmt.Print(sim.CriticalPathOf(rep.ResultOf(f)).Format(8))
		}
	}
	if *whatif {
		wi, err := core.WhatIf(ctx, eng, entry.App, *ranks, plat, tCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "overlapsim: what-if: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(wi.Format())
	}
	if *dump != "" {
		for _, f := range []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal} {
			path := filepath.Join(*dump, fmt.Sprintf("%s-%s.dim", *app, f))
			if err := writeTrace(path, rep.TraceOf(f)); err != nil {
				fmt.Fprintf(os.Stderr, "overlapsim: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if *prv != "" {
		for _, f := range []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal} {
			path := filepath.Join(*prv, fmt.Sprintf("%s-%s.prv", *app, f))
			if err := writePRV(path, rep.ResultOf(f), *app+"/"+string(f)); err != nil {
				fmt.Fprintf(os.Stderr, "overlapsim: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
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
