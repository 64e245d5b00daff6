// Mapping study: does rank placement matter? NAS-CG exchanges vectors
// between partner ranks (0,1), (2,3), ... — block placement keeps every
// partner pair inside one 4-way node (shared memory), while round-robin
// placement tears every pair across the interconnect.
//
// Run with:
//
//	go run ./examples/mapping
//
// Expected shape of the output (exact times vary only with the model
// parameters, not the machine):
//
//	platform: 16 ranks on 4 nodes (map block), intra 6000 MB/s 0.50 us ...
//
//	mapping            base (s)    overlap (s)    speedup    intra bytes    inter bytes
//	block              0.002297       0.002279      1.008         614400              0
//	rr                 0.002759       0.002295      1.202              0         614400
//
// Block placement: all traffic stays on the fast intra-node links, the
// exchange is nearly free, and overlapping buys little (~1%). Round-robin:
// every byte crosses the 250 MB/s Myrinet, the exchange is expensive — and
// automatic overlap wins back most of the loss (~20%). Placement and
// overlap are complementary levers on the same communication cost.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
)

func main() {
	const ranks = 16

	entry, _ := apps.ByName("cg", ranks)

	// The paper's testbed re-clustered into 4-way nodes: shared memory
	// inside a blade, the Myrinet-like network across blades.
	platform, err := network.PlatformPreset("marenostrum-4x", ranks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform: %s\n\n", platform.Describe())

	// Replay the same traced execution under both placements: one
	// mapping-axis scenario traces the app once and fans the per-mapping
	// replays out across the engine.
	res, err := core.RunScenario(context.Background(), nil, core.Scenario{
		App: entry.App, Ranks: ranks, Platform: platform,
		Flavors: []core.Flavor{core.FlavorBase, core.FlavorReal},
		Axes:    []core.Axis{core.MappingAxis("block", "rr")},
		Output:  core.OutputTraffic,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %14s %14s %10s %14s %14s\n", "mapping", "base (s)", "overlap (s)", "speedup", "intra bytes", "inter bytes")
	for _, pt := range res.Points {
		base, real := pt.Flavors[0], pt.Flavors[1]
		fmt.Printf("%-12s %14.6f %14.6f %10.3f %14d %14d\n", pt.Coords[0].Value, base.FinishSec, real.FinishSec,
			metrics.Speedup(base.FinishSec, real.FinishSec), base.Traffic.IntraBytes, base.Traffic.InterBytes)
	}

	block, rr := res.Points[0].Flavors, res.Points[1].Flavors // [base, overlap-real]
	fmt.Printf("\nblock placement keeps %d bytes on shared memory; round-robin pushes %d bytes onto the interconnect.\n",
		block[0].Traffic.IntraBytes, rr[0].Traffic.InterBytes)
	if rr[0].FinishSec > block[0].FinishSec {
		fmt.Printf("bad placement costs %.1f%% elapsed time — and overlap recovers %.1f%% of it.\n",
			100*(rr[0].FinishSec-block[0].FinishSec)/block[0].FinishSec,
			100*(rr[0].FinishSec-rr[1].FinishSec)/(rr[0].FinishSec-block[0].FinishSec))
	}
}
