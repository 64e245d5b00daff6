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
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/tracer"
)

func main() {
	const ranks = 16
	entry, _ := apps.ByName("sweep3d", ranks)
	cfg := tracer.DefaultConfig()
	// The bandwidth study, the scatter and the patterns share one run.
	traces := engine.NewTraceCache()
	needs, err := core.RunBandwidthNeeds(context.Background(), nil, core.Scenario{
		App: entry.App, Ranks: ranks, Tracer: cfg, Platform: network.TestbedFor("sweep3d", ranks), Traces: traces,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Sweep3D wavefront study ==")
	fmt.Printf("speedup: real patterns %.3fx, ideal patterns %.3fx\n",
		metrics.Speedup(needs.BaseFinishSec, needs.Real.FinishSec), metrics.Speedup(needs.BaseFinishSec, needs.Ideal.FinishSec))

	// 1. Why the real patterns give so little: the Fig. 5a shape.
	run, err := traces.Trace("sweep3d", ranks, cfg, entry.App.Kernel)
	if err != nil {
		log.Fatal(err)
	}
	sc := pattern.ScatterFor(run, "outflow-east", 0, pattern.Production)
	if sc != nil {
		fmt.Println("\nFig. 5a — production pattern of the east outflow buffer:")
		fmt.Print(sc.ASCII(90, 14))
	}
	pat, err := traces.Patterns("sweep3d", ranks, cfg, entry.App.Kernel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first element final at %.1f%% of the interval; the bulk only from %.1f%% on\n",
		pat.AppProduction.FirstElem, pat.AppProduction.Quarter)

	// 2/3. The network design consequences, read on the bandwidth grid.
	fmt.Printf("\nFig. 6b — with ideal-pattern overlap the %g MB/s network can shrink to %s\n",
		needs.RefMBps, metrics.FormatMBps(needs.Ideal.Relaxed.Holding))
	fmt.Printf("Fig. 6c — bandwidth the non-overlapped run would need to keep up: %s\n",
		metrics.FormatMBps(needs.Ideal.Equivalent.Holding))
	fmt.Println("(the wavefront's finer-grain chunk dependencies add pipeline parallelism")
	fmt.Println(" that no amount of raw bandwidth can reproduce)")
}
