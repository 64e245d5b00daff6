package core

import (
	"context"
	"testing"

	"repro/internal/tracer"
)

func TestChunkSweep(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(4000, 3, 150)}
	pts, err := ChunkSweep(context.Background(), nil, app, 2, testNet(2), tracer.DefaultConfig(), []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points=%d", len(pts))
	}
	// One chunk = no chunking: the overlapped trace differs from base
	// only by the async sends and postponed wait, so it can never lose.
	if pts[0].Chunks != 1 || pts[0].SpeedupReal < 0.99 {
		t.Fatalf("chunks=1 point: %+v", pts[0])
	}
	// More chunks must help this sequential pipeline: 4 chunks beats 1.
	if pts[2].SpeedupReal <= pts[0].SpeedupReal {
		t.Fatalf("4 chunks (%.3f) not better than 1 (%.3f)", pts[2].SpeedupReal, pts[0].SpeedupReal)
	}
	for _, p := range pts {
		if p.SpeedupIdeal < p.SpeedupReal*0.9 {
			t.Fatalf("ideal far below real at %d chunks: %+v", p.Chunks, p)
		}
	}
}

func TestChunkSweepRejectsBadCount(t *testing.T) {
	app := App{Name: "pipe", Kernel: pipelineKernel(100, 1, 10)}
	if _, err := ChunkSweep(context.Background(), nil, app, 2, testNet(2), tracer.DefaultConfig(), []int{0}); err == nil {
		t.Fatal("chunk count 0 accepted")
	}
}
