// Command paraverdump reproduces the Figure 4 artifact: Paraver-style
// timeline views of one application's non-overlapped and overlapped
// executions on a common time scale, plus state profiles and communication
// lines. It can also write the .prv record files of all three flavours.
//
// Example (the paper's Figure 4 setting — NAS-CG on 4 processes):
//
//	paraverdump -app cg -ranks 4 -width 120 -out /tmp/cg
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/paraver"
	"repro/internal/platformflag"
	"repro/internal/tracer"
)

func main() {
	app := flag.String("app", "cg", "application: sweep3d|pop|alya|specfem3d|bt|cg")
	ranks := flag.Int("ranks", 4, "number of ranks (Fig. 4 uses 4)")
	pf := platformflag.Register(flag.CommandLine)
	width := flag.Int("width", 120, "timeline width in characters")
	comms := flag.Int("comms", 12, "communication lines to print (0 = none)")
	out := flag.String("out", "", "directory for .prv files (optional)")
	views := flag.Bool("views", false, "also print comm matrix, wait histogram, and efficiency slices")
	flag.Parse()

	entry, ok := apps.ByName(*app, *ranks)
	if !ok {
		fmt.Fprintf(os.Stderr, "paraverdump: unknown app %q (known: %v)\n", *app, apps.Names)
		os.Exit(2)
	}
	plat, err := pf.Resolve(*app, *ranks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paraverdump: %v\n", err)
		os.Exit(2)
	}
	if pf.DumpRequested() {
		if err := pf.Dump(os.Stdout, plat); err != nil {
			fmt.Fprintf(os.Stderr, "paraverdump: %v\n", err)
			os.Exit(1)
		}
		return
	}
	rep, err := core.Analyze(context.Background(), nil, entry.App, *ranks, plat, tracer.DefaultConfig())
	if err != nil {
		fmt.Fprintf(os.Stderr, "paraverdump: %v\n", err)
		os.Exit(1)
	}

	fmt.Print(paraver.RenderComparison(rep.Base, rep.Real,
		*app+"/non-overlapped", *app+"/overlapped(real)", *width))
	fmt.Println()
	fmt.Print(paraver.Render(rep.Ideal, *app+"/overlapped(ideal)", *width))

	fmt.Println("\nnon-overlapped profile:")
	fmt.Print(paraver.ProfileOf(rep.Base).Format())
	fmt.Println("overlapped(real) profile:")
	fmt.Print(paraver.ProfileOf(rep.Real).Format())
	if plat.MultiNode() {
		fmt.Println()
		fmt.Print(paraver.TrafficSummaryOf(rep.Base).Format())
	}

	if *comms > 0 {
		fmt.Println("overlapped(real) transfers (send -> match lines):")
		fmt.Print(paraver.CommLines(rep.Real, *comms))
	}

	if *views {
		fmt.Println()
		fmt.Print(paraver.CommMatrixOf(rep.Base).Format())
		fmt.Println("\nnon-overlapped wait distribution:")
		fmt.Print(paraver.WaitHistogram(rep.Base, 8).Format())
		fmt.Println("overlapped(real) wait distribution:")
		fmt.Print(paraver.WaitHistogram(rep.Real, 8).Format())
		fmt.Println("non-overlapped  " + paraver.FormatEfficiency(paraver.EfficiencySlices(rep.Base, *width/2)))
		fmt.Println("overlapped(real)" + paraver.FormatEfficiency(paraver.EfficiencySlices(rep.Real, *width/2)))
	}

	if *out != "" {
		for _, f := range []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal} {
			path := filepath.Join(*out, fmt.Sprintf("%s-%s.prv", *app, f))
			fh, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paraverdump: %v\n", err)
				os.Exit(1)
			}
			if err := paraver.WritePRV(fh, rep.ResultOf(f), *app+"/"+string(f)); err != nil {
				fmt.Fprintf(os.Stderr, "paraverdump: %v\n", err)
				os.Exit(1)
			}
			fh.Close()
			fmt.Printf("wrote %s\n", path)
		}
	}
}
