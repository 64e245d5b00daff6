// Wavefront study: the Sweep3D result reproduced end to end — the
// application whose pipeline structure makes overlap most valuable in the
// paper. The example shows the three headline findings:
//
//  1. with the *measured* patterns the speedup is modest (production
//     finishes late, consumption starts immediately: Table II),
//  2. with *ideal* patterns Sweep3D gains the most of the whole pool
//     (chunking creates finer-grain dependencies between the pipeline
//     stages: Fig. 6a),
//  3. no bandwidth increase can buy the same effect — the equivalent
//     bandwidth diverges (Fig. 6c), while the overlapped execution keeps
//     its performance on a drastically cheaper network (Fig. 6b).
//
// Run with:
//
//	go run ./examples/wavefront
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/tracer"
)

func main() {
	const ranks = 16
	entry, _ := apps.ByName("sweep3d", ranks)
	platform := network.TestbedFor("sweep3d", ranks)

	report, err := core.Analyze(context.Background(), nil, entry.App, ranks, platform, tracer.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Sweep3D wavefront study ==")
	fmt.Printf("speedup: real patterns %.3fx, ideal patterns %.3fx\n",
		report.SpeedupReal, report.SpeedupIdeal)

	// 1. Why the real patterns give so little: the Fig. 5a shape.
	run, err := tracer.Trace("sweep3d", ranks, tracer.DefaultConfig(), entry.App.Kernel)
	if err != nil {
		log.Fatal(err)
	}
	sc := pattern.ScatterFor(run, "outflow-east", 0, pattern.Production)
	if sc != nil {
		fmt.Println("\nFig. 5a — production pattern of the east outflow buffer:")
		fmt.Print(sc.ASCII(90, 14))
	}
	p := report.Patterns.AppProduction
	fmt.Printf("first element final at %.1f%% of the interval; the bulk only from %.1f%% on\n",
		p.FirstElem, p.Quarter)

	// 2/3. The network design consequences.
	relax, err := report.RelaxedBandwidth(core.FlavorIdeal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFig. 6b — with ideal-pattern overlap the 250 MB/s network can shrink to %s\n",
		metrics.FormatMBps(relax))
	equiv, err := report.EquivalentBandwidth(core.FlavorIdeal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig. 6c — bandwidth the non-overlapped run would need to keep up: %s\n",
		metrics.FormatMBps(equiv))
	fmt.Println("(the wavefront's finer-grain chunk dependencies add pipeline parallelism")
	fmt.Println(" that no amount of raw bandwidth can reproduce)")
}
