// Network design study: how much network can overlap replace?
//
// The paper's motivation is economic: high-bandwidth interconnects dominate
// system cost, and overlap "relaxes the application's network requirements,
// and hence allows to deploy more cost-effective network designs". This
// example sweeps the link bandwidth for every application of the pool and
// prints, per application:
//
//   - the finish-time-vs-bandwidth curves of the non-overlapped and
//     overlapped executions (the raw series behind Fig. 6), and
//   - the two derived design numbers: the relaxed bandwidth (Fig. 6b) and
//     the equivalent bandwidth (Fig. 6c).
//
// Run with:
//
//	go run ./examples/bandwidth
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
	"repro/internal/tracer"
)

func main() {
	const ranks = 16
	ctx := context.Background()
	bandwidths := []float64{8, 31, 62, 125, 250, 500, 1000}
	// One trace cache for the whole study: each application is traced
	// once, for its report and its bandwidth scenario alike.
	traces := engine.NewTraceCache()

	for _, entry := range apps.All(ranks) {
		name := entry.App.Name
		plat := network.TestbedFor(name, ranks)
		report, err := core.AnalyzeRun(ctx, nil, traces, entry.App, ranks, tracer.DefaultConfig(), plat)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n", name)
		fmt.Printf("%-8s %12s %12s\n", "MB/s", "base (ms)", "ideal (ms)")
		series, err := core.RunScenario(ctx, nil, core.Scenario{
			App: entry.App, Ranks: ranks, Platform: plat, Traces: traces,
			Flavors: []core.Flavor{core.FlavorBase, core.FlavorIdeal},
			Axes:    []core.Axis{core.BandwidthAxis(bandwidths...)},
		})
		if err != nil {
			log.Fatal(err)
		}
		for i, pt := range series.Points {
			fmt.Printf("%-8.0f %12.3f %12.3f\n", bandwidths[i], pt.Flavors[0].FinishSec*1e3, pt.Flavors[1].FinishSec*1e3)
		}
		relax, err := report.RelaxedBandwidth(core.FlavorIdeal)
		if err != nil {
			log.Fatal(err)
		}
		equiv, err := report.EquivalentBandwidth(core.FlavorIdeal)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("overlap keeps 250 MB/s performance down to: %s\n", metrics.FormatMBps(relax))
		fmt.Printf("bandwidth that buys the same benefit:       %s\n\n", metrics.FormatMBps(equiv))
	}
}
