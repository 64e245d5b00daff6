package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/apps/cg"
	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/tracer"
)

func cgApp() App {
	return App{Name: "cg", Kernel: cg.Kernel(cg.DefaultConfig())}
}

// TestMappingSweepBlockVsRoundRobinDiffers is the PR's acceptance
// criterion: on a multi-node preset, placement must matter — block and
// round-robin mappings yield measurably different elapsed times for a
// bundled application.
func TestMappingSweepBlockVsRoundRobinDiffers(t *testing.T) {
	const ranks = 8
	plat, err := network.PlatformPreset("marenostrum-4x", ranks)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := MappingSweep(context.Background(), nil, cgApp(), ranks, plat, tracer.DefaultConfig(),
		[]network.Mapping{network.BlockMapping(), network.RoundRobinMapping()})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	block, rr := pts[0], pts[1]
	if block.BaseFinishSec == rr.BaseFinishSec {
		t.Fatalf("block and round-robin placements identical (%g s) — hierarchy has no effect", block.BaseFinishSec)
	}
	if block.IntraBytes+block.InterBytes != rr.IntraBytes+rr.InterBytes {
		t.Fatalf("total traffic differs across placements: %d+%d vs %d+%d",
			block.IntraBytes, block.InterBytes, rr.IntraBytes, rr.InterBytes)
	}
	if block.IntraBytes == rr.IntraBytes {
		t.Fatalf("placements split traffic identically (%d intra bytes) — mapping not applied", block.IntraBytes)
	}
	t.Logf("block: %s", FormatMappingPoints(pts[:1]))
	t.Logf("rr:    %s", FormatMappingPoints(pts[1:]))
}

// TestNodeCountSweep packs 8 CG ranks onto 1, 2, 4, and 8 nodes: fewer
// nodes keep more traffic on the fast intra links, so the base finish must
// be non-increasing as the node count drops, and the traffic split must
// move monotonically toward the interconnect as nodes are added.
func TestNodeCountSweep(t *testing.T) {
	const ranks = 8
	plat, err := network.PlatformPreset("marenostrum-4x", ranks)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := NodeCountSweep(context.Background(), engine.New(2), cgApp(), ranks, plat,
		tracer.DefaultConfig(), []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].IntraBytes > pts[i-1].IntraBytes {
			t.Errorf("intra traffic grew from %d to %d when adding nodes (%d -> %d)",
				pts[i-1].IntraBytes, pts[i].IntraBytes, pts[i-1].Nodes, pts[i].Nodes)
		}
	}
	if pts[0].InterBytes != 0 {
		t.Errorf("single-node cluster still sent %d bytes over the interconnect", pts[0].InterBytes)
	}
	if last := pts[len(pts)-1]; last.IntraBytes != 0 {
		t.Errorf("one-rank-per-node cluster kept %d bytes intra-node", last.IntraBytes)
	}
	if pts[0].BaseFinishSec >= pts[3].BaseFinishSec {
		t.Errorf("single fat node (%g s) not faster than fully distributed (%g s) with fast intra links",
			pts[0].BaseFinishSec, pts[3].BaseFinishSec)
	}
	t.Logf("\n%s", FormatNodeCountPoints(pts))
}

// TestMappingSweepDeterministicAcrossEngines: the parallel sweep must be
// byte-identical regardless of worker count, like every other engine path.
func TestMappingSweepDeterministicAcrossEngines(t *testing.T) {
	const ranks = 8
	plat, err := network.PlatformPreset("fatnode-smp", ranks)
	if err != nil {
		t.Fatal(err)
	}
	plat = plat.WithNodes(2)
	mappings := []network.Mapping{
		network.BlockMapping(),
		network.RoundRobinMapping(),
		network.ExplicitMapping([]int{0, 1, 0, 1, 1, 0, 1, 0}),
	}
	ctx := context.Background()
	app := cgApp()
	serial, err := MappingSweep(ctx, engine.New(1), app, ranks, plat, tracer.DefaultConfig(), mappings)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MappingSweep(ctx, engine.New(4), app, ranks, plat, tracer.DefaultConfig(), mappings)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("mapping sweep nondeterministic:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestNodeCountSweepRejectsBadCounts(t *testing.T) {
	plat := network.Testbed(4)
	if _, err := NodeCountSweep(context.Background(), nil, cgApp(), 4, plat, tracer.DefaultConfig(), []int{2, 0}); err == nil {
		t.Fatal("zero node count accepted")
	}
}
