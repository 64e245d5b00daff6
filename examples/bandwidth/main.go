// Network design study: how much network can overlap replace?
//
// The paper's motivation is economic: high-bandwidth interconnects dominate
// system cost, and overlap "relaxes the application's network requirements,
// and hence allows to deploy more cost-effective network designs". This
// example measures every application of the pool on one bandwidth grid
// (metrics.BandwidthGrid, around the 250 MB/s testbed) and prints, per
// application, the non-overlapped and ideal-overlapped curves at the
// grid's doublings (the raw series behind Fig. 6), and the two design
// numbers read off them: the relaxed bandwidth (Fig. 6b) and the
// equivalent bandwidth (Fig. 6c).
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
)

func main() {
	const ranks = 16
	ctx := context.Background()
	traces := engine.NewTraceCache() // each app is traced once for its whole grid

	for _, entry := range apps.All(ranks) {
		name := entry.App.Name
		needs, err := core.RunBandwidthNeeds(ctx, nil, core.Scenario{
			App: entry.App, Ranks: ranks, Platform: network.TestbedFor(name, ranks), Traces: traces,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n", name)
		fmt.Printf("%-8s %12s %12s\n", "MB/s", "base (ms)", "ideal (ms)")
		// Every eighth grid point is a doubling: 7.81 to 1000 MB/s.
		for i := metrics.GridRef - 40; i <= metrics.GridRef+16; i += 8 {
			fmt.Printf("%-8.2f %12.3f %12.3f\n", needs.Base[i].BandwidthMBps, needs.Base[i].FinishSec*1e3, needs.Ideal.Curve[i].FinishSec*1e3)
		}
		// The holding thresholds: every faster grid bandwidth keeps the answer.
		fmt.Printf("overlap keeps %g MB/s performance down to: %s\n", needs.RefMBps, metrics.FormatMBps(needs.Ideal.Relaxed.Holding))
		fmt.Printf("bandwidth that buys the same benefit:       %s\n\n", metrics.FormatMBps(needs.Ideal.Equivalent.Holding))
	}
}
