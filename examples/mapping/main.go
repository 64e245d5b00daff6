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
	"repro/internal/network"
	"repro/internal/tracer"
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

	// Replay the same traced execution under both placements. The app is
	// traced once; the per-mapping replays fan out across the engine.
	points, err := core.MappingSweep(context.Background(), nil, entry.App, ranks, platform, tracer.DefaultConfig(),
		[]network.Mapping{network.BlockMapping(), network.RoundRobinMapping()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(core.FormatMappingPoints(points))

	block, rr := points[0], points[1]
	fmt.Printf("\nblock placement keeps %d bytes on shared memory; round-robin pushes %d bytes onto the interconnect.\n",
		block.IntraBytes, rr.InterBytes)
	if rr.BaseFinishSec > block.BaseFinishSec {
		fmt.Printf("bad placement costs %.1f%% elapsed time — and overlap recovers %.1f%% of it.\n",
			100*(rr.BaseFinishSec-block.BaseFinishSec)/block.BaseFinishSec,
			100*(rr.BaseFinishSec-rr.RealFinishSec)/(rr.BaseFinishSec-block.BaseFinishSec))
	}
}
