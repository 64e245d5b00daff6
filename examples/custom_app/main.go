// Writing your own kernel: the framework analyzes any application written
// against the instrumented API — exactly the paper's promise ("without the
// need to know or understand the application's source code", here: without
// changing it for overlap).
//
// The example implements a small 1D Jacobi heat solver with halo exchange,
// runs it through the pipeline, and prints what automatic overlap would
// buy. It demonstrates every API element a kernel needs:
//
//   - tracked arrays (NewArray / Load / Store) for communicated buffers,
//   - Compute for untracked work,
//   - blocking and non-blocking tracked transfers,
//   - collectives (the residual Allreduce),
//   - numerical verification, since the substrate moves real data.
//
// Run with:
//
//	go run ./examples/custom_app
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/network"
	"repro/internal/tracer"
)

const (
	ranks   = 8
	cells   = 256 // interior cells per rank
	steps   = 6
	workPer = 400 // instructions per cell update
)

// jacobi is one rank of the heat solver. Boundary cells travel through
// tracked one-cell... rather, tracked halo buffers of width 32 so the
// chunking transformation has something to split.
func jacobi(p *tracer.Proc) {
	me, size := p.Rank(), p.Size()
	const halo = 32
	left := p.NewArray("halo-left", halo)
	right := p.NewArray("halo-right", halo)
	inL := p.NewArray("halo-in-left", halo)
	inR := p.NewArray("halo-in-right", halo)
	res := make([]float64, 1)

	temp := make([]float64, cells)
	for i := range temp {
		temp[i] = float64(me) // step gradient across ranks
	}

	for s := 0; s < steps; s++ {
		// Interior update: untracked bulk compute.
		p.Compute(int64(cells) * workPer)
		for i := range temp {
			temp[i] += 0.1
		}
		// Pack boundary strips (tracked stores).
		for i := 0; i < halo; i++ {
			left.Store(i, temp[i])
			right.Store(i, temp[cells-halo+i])
		}
		// Exchange halos with neighbours (non-blocking, like a real
		// stencil code).
		var reqs []*tracer.RecvReq
		if me > 0 {
			reqs = append(reqs, p.Irecv(inL, me-1, 2))
			p.Isend(me-1, 1, left)
		}
		if me < size-1 {
			reqs = append(reqs, p.Irecv(inR, me+1, 1))
			p.Isend(me+1, 2, right)
		}
		for _, r := range reqs {
			r.Wait()
		}
		// Consume the halos right away (tracked loads).
		edge := 0.0
		if me > 0 {
			for i := 0; i < halo; i++ {
				edge += inL.Load(i)
			}
		}
		if me < size-1 {
			for i := 0; i < halo; i++ {
				edge += inR.Load(i)
			}
		}
		p.Compute(int64(halo) * workPer)
		// Global residual: one scalar Allreduce per step.
		p.Allreduce([]float64{edge}, res, mpi.OpSum)
	}

	// Numerical sanity: after `steps` updates every cell gained 0.1 per
	// step on top of its rank-valued start.
	for i, v := range temp {
		want := float64(me) + 0.1*float64(steps)
		if math.Abs(v-want) > 1e-9 {
			panic(fmt.Sprintf("rank %d cell %d: got %v want %v", me, i, v, want))
		}
	}
}

func main() {
	app := core.App{Name: "jacobi1d", Kernel: jacobi}
	report, err := core.Analyze(context.Background(), nil, nil, app, ranks, tracer.DefaultConfig(), network.Testbed(ranks))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== custom kernel: 1D Jacobi heat solver ==")
	fmt.Printf("non-overlapped:    %.6f s\n", report.Base.FinishSec)
	fmt.Printf("overlapped (real): %.6f s  (%.2fx)\n", report.Real.FinishSec, report.SpeedupReal)
	fmt.Printf("overlapped (ideal):%.6f s  (%.2fx)\n", report.Ideal.FinishSec, report.SpeedupIdeal)
	p := report.Patterns.AppProduction
	c := report.Patterns.AppConsumption
	fmt.Printf("halo production:  first element final at %.1f%% of the interval\n", p.FirstElem)
	fmt.Printf("halo consumption: first needed at %.1f%% of the interval\n", c.Nothing)
	fmt.Println("(pack-at-end + consume-immediately: a POP-like pattern, so the real")
	fmt.Println(" gain is small — restructure the update loop to produce halos early")
	fmt.Println(" and the ideal column shows what that would buy)")
}
