package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// pipeKernel is a two-rank produce/send/consume pipeline with enough
// events to make replays non-trivial.
func pipeKernel(n, iters int, work int64) func(p *tracer.Proc) {
	return func(p *tracer.Proc) {
		buf := p.NewArray("pipe", n)
		for it := 0; it < iters; it++ {
			if p.Rank() == 0 {
				for i := 0; i < n; i++ {
					p.Compute(work)
					buf.Store(i, float64(i))
				}
				p.Send(1, 0, buf)
			} else {
				p.Recv(buf, 0, 0)
				for i := 0; i < n; i++ {
					p.Compute(work)
					_ = buf.Load(i)
				}
			}
		}
	}
}

// chunkFinishesSerial is the serial reference of a chunk-count sweep:
// one goroutine traces the app once, replays the non-overlapped baseline,
// and per chunk count rebuilds and replays both overlapped flavors with
// the plain simulator. Each row holds the base, overlap-real and
// overlap-ideal makespans.
func chunkFinishesSerial(t *testing.T, app core.App, ranks int, plat network.Platform, counts []int) [][3]float64 {
	t.Helper()
	run, err := tracer.Trace(app.Name, ranks, tracer.DefaultConfig(), app.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Run(plat, run.BaseTrace())
	if err != nil {
		t.Fatal(err)
	}
	out := make([][3]float64, 0, len(counts))
	for _, k := range counts {
		kRun := run.WithChunks(k)
		row := [3]float64{base.FinishSec}
		for i, tr := range []*trace.Trace{kRun.OverlapReal(), kRun.OverlapIdeal()} {
			if err := tr.Validate(); err != nil {
				t.Fatalf("chunks=%d %s: %v", k, tr.Flavor, err)
			}
			res, err := sim.Run(plat, tr)
			if err != nil {
				t.Fatal(err)
			}
			row[1+i] = res.FinishSec
		}
		out = append(out, row)
	}
	return out
}

// TestParallelSweepMatchesSerial is the engine's determinism contract: a
// chunks-axis scenario fanned out across the pool returns results
// byte-identical to the single-goroutine reference loop — same points,
// same order, same bits in every float.
func TestParallelSweepMatchesSerial(t *testing.T) {
	app := core.App{Name: "pipe", Kernel: pipeKernel(2000, 3, 100)}
	plat := network.Testbed(2)
	counts := []int{1, 2, 3, 4, 6, 8, 12, 16}

	serial := chunkFinishesSerial(t, app, 2, plat, counts)
	for _, workers := range []int{1, 2, 8} {
		res, err := core.RunScenario(context.Background(), engine.New(workers), core.Scenario{
			App: app, Ranks: 2, Platform: plat,
			Flavors: []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal},
			Axes:    []core.Axis{core.ChunksAxis(counts...)},
		})
		if err != nil {
			t.Fatal(err)
		}
		parallel := make([][3]float64, len(res.Points))
		for i, pt := range res.Points {
			for f := range parallel[i] {
				parallel[i][f] = pt.Flavors[f].FinishSec
			}
		}
		// The rows hold only float64s, so DeepEqual compares the raw
		// bits: any nondeterministic reduction order would show.
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d: parallel sweep diverged from serial:\nserial:   %v\nparallel: %v",
				workers, serial, parallel)
		}
		if fmt.Sprint(serial) != fmt.Sprint(parallel) {
			t.Fatalf("workers=%d: formatted outputs differ", workers)
		}
	}
}

// TestContextFreeWrappersInsideJobs runs a core study with a nil engine
// (which submits to the process-wide default engine) from inside jobs
// that saturate that same default engine. The caller-runs discipline must
// complete this; a pool that block-waits on itself would deadlock here.
func TestContextFreeWrappersInsideJobs(t *testing.T) {
	app := core.App{Name: "pipe", Kernel: pipeKernel(400, 1, 40)}
	n := engine.Default().Workers() * 2
	done := make(chan error, 1)
	go func() {
		_, err := engine.Map(context.Background(), nil, n, func(ctx context.Context, i int) (float64, error) {
			res, err := core.RunScenario(ctx, nil, core.Scenario{
				App: app, Ranks: 2, Platform: network.Testbed(2),
				Flavors: []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal},
				Axes:    []core.Axis{core.ChunksAxis(1, 2, 4)},
			})
			if err != nil {
				return 0, err
			}
			return res.Points[2].Flavors[1].FinishSec, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("nil-engine study deadlocked the default engine")
	}
}

// TestConcurrentReplaysOfSharedTrace replays one shared trace on many
// workers at once. Run under -race it proves the simulator takes no
// hidden write access to its input trace and the copy-on-write variant
// builders never touch the shared run.
func TestConcurrentReplaysOfSharedTrace(t *testing.T) {
	const replays = 12 // >= 8 concurrent replays of one shared trace
	run, err := tracer.Trace("pipe", 2, tracer.DefaultConfig(), pipeKernel(1500, 2, 80))
	if err != nil {
		t.Fatal(err)
	}
	base := run.BaseTrace()
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	plat := network.Testbed(2)
	eng := engine.New(replays)

	results, err := engine.Map(context.Background(), eng, replays, func(ctx context.Context, i int) (*sim.Result, error) {
		// Half the jobs replay the shared base trace directly; the other
		// half build chunk variants from the shared run first, exercising
		// the copy-on-write path concurrently with the readers.
		if i%2 == 0 {
			return sim.Run(plat, base)
		}
		v := run.WithChunks(1 + i%5)
		tr := v.OverlapReal()
		if err := tr.Validate(); err != nil {
			return nil, err
		}
		return sim.Run(plat, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil || res.FinishSec <= 0 {
			t.Fatalf("replay %d degenerate: %+v", i, res)
		}
	}
	// All even jobs replayed the identical trace: identical makespans.
	for i := 2; i < replays; i += 2 {
		if results[i].FinishSec != results[0].FinishSec {
			t.Fatalf("replay %d of the shared trace finished at %g, replay 0 at %g",
				i, results[i].FinishSec, results[0].FinishSec)
		}
	}
}
