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
	"repro/internal/network"
	"repro/internal/tracer"
)

func main() {
	sizes := []int{4, 8, 16, 32}
	for _, name := range []string{"sweep3d", "cg"} {
		fmt.Printf("== %s ==\n", name)
		fmt.Printf("%-8s %12s %14s %14s\n", "ranks", "base (ms)", "speedup real", "speedup ideal")
		for _, ranks := range sizes {
			entry, _ := apps.ByName(name, ranks)
			rep, err := core.Analyze(context.Background(), nil, nil, entry.App, ranks, tracer.DefaultConfig(), network.TestbedFor(name, ranks))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8d %12.3f %14.3f %14.3f\n",
				ranks, rep.Base.FinishSec*1e3, rep.SpeedupReal, rep.SpeedupIdeal)
		}
		fmt.Println()
	}
	fmt.Println("(the Sweep3D ideal column growing with scale is the pipeline effect the")
	fmt.Println(" paper attributes to 'finer-grain dependencies among processes')")
}
