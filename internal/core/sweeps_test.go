package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestChunkSweep runs the chunk-count ablation as a chunks-axis scenario
// of the three flavors and checks the shape of its speedups.
func TestChunkSweep(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(4000, 3, 150)}
	res, err := RunScenario(context.Background(), nil, Scenario{
		App: app, Ranks: 2, Platform: testNet(2),
		Flavors: []Flavor{FlavorBase, FlavorReal, FlavorIdeal},
		Axes:    []Axis{ChunksAxis(1, 2, 4, 8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points=%d", len(res.Points))
	}
	real := make([]float64, len(res.Points))
	ideal := make([]float64, len(res.Points))
	for i, pt := range res.Points {
		base := pt.Flavors[0].FinishSec
		real[i] = metrics.Speedup(base, pt.Flavors[1].FinishSec)
		ideal[i] = metrics.Speedup(base, pt.Flavors[2].FinishSec)
	}
	// One chunk = no chunking: the overlapped trace differs from base
	// only by the async sends and postponed wait, so it can never lose.
	if c := res.Points[0].Coords[0]; c.Value != "1" || real[0] < 0.99 {
		t.Fatalf("chunks=1 point: %v, speedup %.3f", c, real[0])
	}
	// More chunks must help this sequential pipeline: 4 chunks beats 1.
	if real[2] <= real[0] {
		t.Fatalf("4 chunks (%.3f) not better than 1 (%.3f)", real[2], real[0])
	}
	for i, pt := range res.Points {
		if ideal[i] < real[i]*0.9 {
			t.Fatalf("ideal far below real at %v: real %.3f, ideal %.3f", pt.Coords, real[i], ideal[i])
		}
	}
}

// TestChunkSweepRejectsBadCount: Axis.Validate refuses a chunk count
// of 0 before any point is planned.
func TestChunkSweepRejectsBadCount(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(100, 1, 10)}
	_, err := RunScenario(context.Background(), nil, Scenario{
		App: app, Ranks: 2, Platform: testNet(2),
		Axes: []Axis{ChunksAxis(0)},
	})
	if err == nil || !strings.Contains(err.Error(), `axis "chunks": count 0, must be positive`) {
		t.Fatalf("chunk count 0: %v", err)
	}
}
