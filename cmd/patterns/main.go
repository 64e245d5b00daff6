// Command patterns reproduces the Figure 5 scatter plots and the Table II
// statistics for one application of the pool: it traces the application and
// renders the production/consumption access patterns of its communicated
// buffers, with the Eq. 1 overlap bound they allow. Patterns are measured
// on the traced run alone, so no platform enters and nothing is replayed;
// overlapsim prints what the patterns buy as speedup on a platform.
//
// Examples:
//
//	patterns -app sweep3d -side prod -buffer outflow-east
//	patterns -app bt -side cons -rank 1 -csv /tmp/bt.csv
//	patterns -app cg               (Table II row + per-buffer statistics)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/apps"
	"repro/internal/pattern"
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
	flag.Parse()

	entry, ok := apps.ByName(*app, *ranks)
	if !ok {
		fmt.Fprintf(os.Stderr, "patterns: unknown app %q (known: %v)\n", *app, apps.Names)
		os.Exit(2)
	}
	run, err := tracer.Trace(*app, *ranks, tracer.DefaultConfig(), entry.App.Kernel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "patterns: %v\n", err)
		os.Exit(1)
	}
	an := pattern.Analyze(run)
	fmt.Print(pattern.FormatTableII([]*pattern.Analysis{an}))

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
