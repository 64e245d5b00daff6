package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/network"
)

// placementPoints runs one placement study: a traffic-output scenario of
// the base and overlap-real flavors of CG along a single axis.
func placementPoints(t *testing.T, eng *engine.Engine, ranks int, plat network.Platform, ax Axis) []ScenarioPoint {
	t.Helper()
	res, err := RunScenario(context.Background(), eng, Scenario{
		App: scenarioApp(), Ranks: ranks, Platform: plat,
		Flavors: []Flavor{FlavorBase, FlavorReal},
		Axes:    []Axis{ax},
		Output:  OutputTraffic,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Points
}

// TestMappingSweepBlockVsRoundRobinDiffers: on a multi-node preset,
// placement must matter — block and round-robin mappings yield
// measurably different elapsed times for a bundled application.
func TestMappingSweepBlockVsRoundRobinDiffers(t *testing.T) {
	const ranks = 8
	pts := placementPoints(t, nil, ranks, scenarioPlatform(t, ranks), MappingAxis("block", "rr"))
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	block, rr := pts[0].Flavors[0], pts[1].Flavors[0]
	if block.FinishSec == rr.FinishSec {
		t.Fatalf("block and round-robin placements identical (%g s) — hierarchy has no effect", block.FinishSec)
	}
	if block.Traffic.IntraBytes+block.Traffic.InterBytes != rr.Traffic.IntraBytes+rr.Traffic.InterBytes {
		t.Fatalf("total traffic differs across placements: %d+%d vs %d+%d",
			block.Traffic.IntraBytes, block.Traffic.InterBytes, rr.Traffic.IntraBytes, rr.Traffic.InterBytes)
	}
	if block.Traffic.IntraBytes == rr.Traffic.IntraBytes {
		t.Fatalf("placements split traffic identically (%d intra bytes) — mapping not applied", block.Traffic.IntraBytes)
	}
}

// TestNodeCountSweep packs 8 CG ranks onto 1, 2, 4, and 8 nodes: fewer
// nodes keep more traffic on the fast intra links, so the base finish must
// be non-increasing as the node count drops, and the traffic split must
// move monotonically toward the interconnect as nodes are added.
func TestNodeCountSweep(t *testing.T) {
	const ranks = 8
	pts := placementPoints(t, engine.New(2), ranks, scenarioPlatform(t, ranks), NodeCountAxis(1, 2, 4, 8))
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	base := make([]FlavorMeasure, len(pts))
	for i, pt := range pts {
		base[i] = pt.Flavors[0]
	}
	for i := 1; i < len(pts); i++ {
		if base[i].Traffic.IntraBytes > base[i-1].Traffic.IntraBytes {
			t.Errorf("intra traffic grew from %d to %d when adding nodes (%s -> %s)",
				base[i-1].Traffic.IntraBytes, base[i].Traffic.IntraBytes, pts[i-1].Coords[0].Value, pts[i].Coords[0].Value)
		}
	}
	if base[0].Traffic.InterBytes != 0 {
		t.Errorf("single-node cluster still sent %d bytes over the interconnect", base[0].Traffic.InterBytes)
	}
	if last := base[len(base)-1]; last.Traffic.IntraBytes != 0 {
		t.Errorf("one-rank-per-node cluster kept %d bytes intra-node", last.Traffic.IntraBytes)
	}
	if base[0].FinishSec >= base[3].FinishSec {
		t.Errorf("single fat node (%g s) not faster than fully distributed (%g s) with fast intra links",
			base[0].FinishSec, base[3].FinishSec)
	}
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
	ax := MappingAxis("block", "rr", "0,1,0,1,1,0,1,0")
	serial, err := json.Marshal(placementPoints(t, engine.New(1), ranks, plat, ax))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := json.Marshal(placementPoints(t, engine.New(4), ranks, plat, ax))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("mapping sweep nondeterministic:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

// TestNodeCountSweepRejectsBadCounts: Axis.Validate refuses a node count
// of 0 before any point is planned.
func TestNodeCountSweepRejectsBadCounts(t *testing.T) {
	_, err := RunScenario(context.Background(), nil, Scenario{
		App: scenarioApp(), Ranks: 4, Platform: network.Testbed(4),
		Axes: []Axis{NodeCountAxis(2, 0)},
	})
	if err == nil || !strings.Contains(err.Error(), `axis "nodes": count 0, must be positive`) {
		t.Fatalf("node count 0: %v", err)
	}
}
