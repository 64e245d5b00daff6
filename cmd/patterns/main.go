// Command patterns reproduces the Figure 5 scatter plots and the Table II
// statistics for one application of the pool: it traces the application and
// renders the production/consumption access patterns of its communicated
// buffers, then quantifies what those patterns buy as overlap speedup on
// the active platform.
//
// The platform flags (-preset, -platform, -nodes, -map, ...) are the
// uniform set shared by every CLI (internal/platformflag); -workers sizes
// the engine pool the three flavour replays fan out on.
//
// Examples:
//
//	patterns -app sweep3d -side prod -buffer outflow-east
//	patterns -app bt -side cons -rank 1 -csv /tmp/bt.csv
//	patterns -app cg               (Table II row + overlap summary)
//	patterns -app cg -preset fatnode-smp -map rr
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pattern"
	"repro/internal/platformflag"
	"repro/internal/tracer"
)

func main() {
	app := flag.String("app", "cg", "application: sweep3d|pop|alya|specfem3d|bt|cg")
	ranks := flag.Int("ranks", 16, "number of ranks")
	side := flag.String("side", "", "prod|cons: also render the scatter of -buffer on -rank")
	buffer := flag.String("buffer", "", "buffer name for the scatter (default: first communicated buffer)")
	rank := flag.Int("rank", 0, "rank whose scatter to render")
	width := flag.Int("width", 100, "scatter width in characters")
	height := flag.Int("height", 18, "scatter height in characters")
	csv := flag.String("csv", "", "write the scatter as CSV to this file")
	workers := flag.Int("workers", 0, "experiment-engine worker pool size (0 = GOMAXPROCS)")
	pf := platformflag.Register(flag.CommandLine)
	flag.Parse()

	entry, ok := apps.ByName(*app, *ranks)
	if !ok {
		fmt.Fprintf(os.Stderr, "patterns: unknown app %q (known: %v)\n", *app, apps.Names)
		os.Exit(2)
	}
	plat, err := pf.Resolve(*app, *ranks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "patterns: %v\n", err)
		os.Exit(1)
	}
	if pf.DumpRequested() {
		if err := pf.Dump(os.Stdout, plat); err != nil {
			fmt.Fprintf(os.Stderr, "patterns: %v\n", err)
			os.Exit(1)
		}
		return
	}
	eng := engine.New(*workers)
	run, err := eng.Traces().Trace(*app, *ranks, tracer.DefaultConfig(), entry.App.Kernel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "patterns: %v\n", err)
		os.Exit(1)
	}
	an := pattern.Analyze(run)
	fmt.Print(pattern.FormatTableII([]*pattern.Analysis{an}))

	// What the measured patterns are worth on the active platform: the
	// three flavour replays run concurrently on the engine pool.
	rep, err := core.AnalyzeRun(context.Background(), eng, run, plat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "patterns: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\noverlap on %s:\n", plat.Describe())
	fmt.Printf("  speedup %.3fx with measured patterns, %.3fx with ideal patterns\n",
		rep.SpeedupReal, rep.SpeedupIdeal)

	fmt.Println("\nper-buffer statistics:")
	names := make([]string, 0, len(an.Production))
	for n := range an.Production {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := an.Production[n]
		fmt.Printf("  produce %-16s first=%7.2f%% quarter=%7.2f%% half=%7.2f%% whole=%7.2f%% (%d intervals)\n",
			n, p.FirstElem, p.Quarter, p.Half, p.Whole, p.Intervals)
	}
	names = names[:0]
	for n := range an.Consumption {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := an.Consumption[n]
		fmt.Printf("  consume %-16s nothing=%6.2f%% quarter=%7.2f%% half=%7.2f%% (%d intervals)\n",
			n, c.Nothing, c.Quarter, c.Half, c.Intervals)
	}

	// Eq. 1 of the paper: the analytic overlap bound under the measured
	// patterns versus the ideal ones.
	measured := pattern.OverlapPotential(an.AppProduction, an.AppConsumption, 4)
	ideal := pattern.IdealPotential(4)
	if len(measured.PerChunkPct) > 0 {
		fmt.Printf("\nEq. 1 overlap bound (4 chunks): measured avg %.1f%% of a phase pair, ideal %.1f%%\n",
			measured.AvgPct, ideal.AvgPct)
		fmt.Printf("  per chunk (measured): ")
		for _, v := range measured.PerChunkPct {
			fmt.Printf("%6.1f%%", v)
		}
		fmt.Println()
	} else {
		fmt.Println("\nEq. 1 overlap bound: message cannot be chunked (single-element transfers)")
	}

	if *side == "" {
		return
	}
	var sd pattern.Side
	switch *side {
	case "prod":
		sd = pattern.Production
	case "cons":
		sd = pattern.Consumption
	default:
		fmt.Fprintf(os.Stderr, "patterns: -side must be prod or cons\n")
		os.Exit(2)
	}
	buf := *buffer
	if buf == "" {
		// Pick the first buffer with data on the requested side.
		if sd == pattern.Production {
			for _, n := range sortedKeysP(an.Production) {
				buf = n
				break
			}
		} else {
			for _, n := range sortedKeysC(an.Consumption) {
				buf = n
				break
			}
		}
	}
	sc := pattern.ScatterFor(run, buf, *rank, sd)
	if sc == nil || len(sc.Points) == 0 {
		fmt.Fprintf(os.Stderr, "patterns: no %s data for buffer %q on rank %d\n", *side, buf, *rank)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Print(sc.ASCII(*width, *height))
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			fmt.Fprintf(os.Stderr, "patterns: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := sc.WriteCSV(f); err != nil {
			fmt.Fprintf(os.Stderr, "patterns: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d points)\n", *csv, len(sc.Points))
	}
}

func sortedKeysP(m map[string]*pattern.ProductionStats) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysC(m map[string]*pattern.ConsumptionStats) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
