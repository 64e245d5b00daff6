// Scaling study: how do the overlap benefits evolve with the number of
// processes? The paper's motivation is large-scale behaviour
// ("communication delays might substantially decrease the application
// performance, specially at large scale"); this example runs Sweep3D and
// CG across process counts and shows two effects:
//
//   - the wavefront's ideal-pattern speedup *grows* with scale (deeper
//     pipelines profit more from finer-grain chunk dependencies),
//   - CG's real-pattern speedup stays roughly flat (it hides a fixed
//     per-iteration exchange).
//
// Run with:
//
//	go run ./examples/scaling
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
	for _, name := range []string{"sweep3d", "cg"} {
		// One ranks-axis scenario per app: each point re-traces the app
		// at its world size and resizes the flat testbed to match.
		res, err := core.RunScenario(context.Background(), nil, core.Scenario{
			Factory: func(ranks int) (core.App, error) {
				entry, _ := apps.ByName(name, ranks)
				return entry.App, nil
			},
			Ranks:    4,
			Platform: network.TestbedFor(name, 4),
			Flavors:  []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal},
			Axes:     []core.Axis{core.RanksAxis(4, 8, 16, 32)},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n", name)
		fmt.Printf("%-8s %12s %14s %14s\n", "ranks", "base (ms)", "speedup real", "speedup ideal")
		for _, pt := range res.Points {
			fs := pt.Flavors
			fmt.Printf("%-8s %12.3f %14.3f %14.3f\n", pt.Coords[0].Value, fs[0].FinishSec*1e3,
				metrics.Speedup(fs[0].FinishSec, fs[1].FinishSec), metrics.Speedup(fs[0].FinishSec, fs[2].FinishSec))
		}
		fmt.Println()
	}
	fmt.Println("(the Sweep3D ideal column growing with scale is the pipeline effect the")
	fmt.Println(" paper attributes to 'finer-grain dependencies among processes')")
}
