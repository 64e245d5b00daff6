// Quickstart: analyze how much NAS-CG would gain from automatic
// communication-computation overlap — the complete pipeline of the paper
// (trace once, build the non-overlapped and overlapped traces, replay them
// on the MareNostrum-like testbed, compare) in a dozen lines.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/paraver"
	"repro/internal/tracer"
)

func main() {
	const ranks = 4 // the paper's Figure 4 uses 4 CG processes

	// Pick NAS-CG from the application pool and the calibrated testbed
	// (250 MB/s Myrinet-like network, Table I bus count).
	entry, _ := apps.ByName("cg", ranks)
	platform := network.TestbedFor("cg", ranks)

	// One call runs the whole framework: Valgrind-equivalent tracing,
	// trace transformation, and Dimemas-equivalent replay of all three
	// execution flavours.
	report, err := core.Analyze(context.Background(), nil, nil, entry.App, ranks, tracer.DefaultConfig(), platform)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("non-overlapped execution:   %.6f s\n", report.Base.FinishSec)
	fmt.Printf("overlapped (real patterns): %.6f s  -> speedup %.2fx\n",
		report.Real.FinishSec, report.SpeedupReal)
	fmt.Printf("overlapped (ideal patterns):%.6f s  -> speedup %.2fx\n",
		report.Ideal.FinishSec, report.SpeedupIdeal)

	// The Paraver-style comparison of Figure 4: both timelines on a
	// common scale; watch the receiver Wait phases shrink.
	fmt.Println()
	fmt.Print(paraver.RenderComparison(report.Base, report.Real,
		"cg/non-overlapped", "cg/overlapped", 100))

	// Table II row: why CG overlaps well — near-linear production and
	// consumption patterns.
	p := report.Patterns.AppProduction
	c := report.Patterns.AppConsumption
	fmt.Printf("\nproduction pattern:  1st element at %.1f%%, quarter at %.1f%%, half at %.1f%%\n",
		p.FirstElem, p.Quarter, p.Half)
	fmt.Printf("consumption pattern: nothing %.1f%%, quarter %.1f%%, half %.1f%%\n",
		c.Nothing, c.Quarter, c.Half)
}
