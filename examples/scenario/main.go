// Scenario API: one declarative spec, one planner, every study. This
// example runs the cross-product study the bespoke sweep families could
// not express — bandwidth × mapping — as a single core.Scenario: does
// buying a faster interconnect help, and does the answer depend on rank
// placement?
//
// Run with:
//
//	go run ./examples/scenario
//
// The same study as a service request (scenario.json in this directory):
//
//	simd -addr :8080 &
//	curl -X POST localhost:8080/v1/scenarios -d @examples/scenario/scenario.json
//
// or locally through simd's one-shot -scenario flag:
//
//	go run ./cmd/simd -scenario examples/scenario/scenario.json
//
// Expected shape of the output: under block placement the CG exchange
// stays on shared memory, so the interconnect bandwidth column doesn't
// matter — all three bandwidths finish alike. Under round-robin every
// byte crosses the interconnect: the base execution speeds up with
// bandwidth, and the overlapped execution hides most of the remaining
// cost. Placement, bandwidth, and overlap are one coupled design space —
// which is why the grid is one spec, not three nested scripts.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/network"
)

func main() {
	const ranks = 16
	entry, _ := apps.ByName("cg", ranks)
	platform, err := network.PlatformPreset("marenostrum-4x", ranks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform: %s\n\n", platform.Describe())

	spec := core.Scenario{
		App:      entry.App,
		Ranks:    ranks,
		Platform: platform,
		Flavors:  []core.Flavor{core.FlavorBase, core.FlavorReal},
		Axes: []core.Axis{
			core.BandwidthAxis(125, 250, 1000),
			core.MappingAxis("block", "rr"),
		},
		Output: core.OutputTraffic,
	}

	// Results stream: the planner yields grid points in deterministic
	// row-major order as simulations finish, and the printer renders each
	// row the moment it arrives — same bytes a batch RunScenario +
	// Format() would print, without materializing the grid first.
	hdr, err := spec.Header()
	if err != nil {
		log.Fatal(err)
	}
	printer, err := core.NewScenarioPrinter(os.Stdout, hdr)
	if err != nil {
		log.Fatal(err)
	}
	var points []core.ScenarioPoint
	if _, err := core.RunScenarioStream(context.Background(), nil, spec, func(pt core.ScenarioPoint) error {
		points = append(points, pt)
		return printer.Point(pt)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspec digest %s — the same spec POSTed to /v1/scenarios is cached under this key.\n", hdr.SpecDigest)

	// Read the conclusion out of the flat table: per mapping, how much
	// does 8x bandwidth buy the non-overlapped execution?
	finish := map[string]map[string]float64{} // mapping → bandwidth → base finish
	for _, pt := range points {
		bw, mp := pt.Coords[0].Value, pt.Coords[1].Value
		if finish[mp] == nil {
			finish[mp] = map[string]float64{}
		}
		finish[mp][bw] = pt.Flavors[0].FinishSec
	}
	for _, mp := range []string{"block", "rr"} {
		slow, fast := finish[mp]["125"], finish[mp]["1000"]
		fmt.Printf("%-6s 125→1000 MB/s cuts the non-overlapped run by %.1f%%\n",
			mp, 100*(slow-fast)/slow)
	}
}
