package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
)

// The streaming scenario planner. RunScenarioStream is the one
// execution path behind every study: grid points leave the planner one
// at a time, in deterministic row-major order, as soon as they (and all
// their predecessors) finish — the engine's out-of-order completions
// pass through a bounded reorder window (engine.MapStream), so a slow
// consumer exerts backpressure on simulation instead of the planner
// materializing the whole grid. RunScenario collects the stream into
// the batch table, which makes batch and stream byte-identical by
// construction.

// streamEmitter delivers grid points to the caller's yield in row-major
// order, interleaving cached points (known up front) with computed ones
// as they become ready.
type streamEmitter struct {
	ctx     context.Context
	sc      *Scenario
	grid    []gridPoint
	digests []string
	cached  []*ScenarioPoint
	// build assembles the computed point at grid index p, reporting
	// false while its measurements are still in flight.
	build func(p int) (ScenarioPoint, bool, error)
	yield func(ScenarioPoint) error
	next  int
}

// advance emits every point that is ready, stopping at the first one
// still in flight. Cancellation is checked per point so a mid-grid
// cancel stops the stream promptly even while draining cached points.
func (e *streamEmitter) advance() error {
	for e.next < len(e.grid) {
		if err := context.Cause(e.ctx); err != nil {
			return err
		}
		p := e.next
		if c := e.cached[p]; c != nil {
			t0 := time.Now()
			if err := e.yield(*c); err != nil {
				return err
			}
			mStageEmit.ObserveSince(t0)
			mPtsCached.Inc()
			e.next++
			continue
		}
		t0 := time.Now()
		pt, ok, err := e.build(p)
		if err != nil || !ok {
			return err
		}
		mStageCopyout.ObserveSince(t0)
		if e.sc.PointCache != nil {
			e.sc.PointCache.PutPoint(e.digests[p], pt)
		}
		t0 = time.Now()
		if err := e.yield(pt); err != nil {
			return err
		}
		mStageEmit.ObserveSince(t0)
		mPtsComputed.Inc()
		e.next++
	}
	return nil
}

// RunScenarioStream canonicalizes the spec, expands the axes into a run
// grid, and executes the points on pooled replayers through the engine
// (nil selects the default engine), compiling each replayed trace
// flavor exactly once. Completed points are delivered to yield in
// row-major spec order (last axis group fastest) — identical point
// values and order to RunScenario's table — with at most a bounded
// window of results held between the engine's completion order and the
// emission order. An error from yield aborts the run, as does ctx
// cancellation; unstarted grid points are then never simulated. The
// returned header is what a complete result carries alongside the
// points.
//
// When spec.PointCache is set, each grid point is first looked up by
// its per-point digest and cache hits are emitted without scheduling
// any simulation — a spec overlapping a previously computed grid
// simulates only the gap. Freshly computed points are stored back.
func RunScenarioStream(ctx context.Context, eng *engine.Engine, spec Scenario, yield func(ScenarioPoint) error) (*ScenarioHeader, error) {
	sc, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	return sc.stream(ctx, eng, yield)
}

// stream runs an already-normalized spec: RunScenarioStream's body.
func (sc *Scenario) stream(ctx context.Context, eng *engine.Engine, yield func(ScenarioPoint) error) (*ScenarioHeader, error) {
	hdr, err := sc.header()
	if err != nil {
		return nil, err
	}
	base, err := sc.canonicalBase()
	if err != nil {
		return nil, err
	}
	grid, err := sc.grid()
	if err != nil {
		return nil, err
	}
	digests := make([]string, len(grid))
	cached := make([]*ScenarioPoint, len(grid))
	for p := range grid {
		if digests[p], err = pointDigest(base, grid[p].coords); err != nil {
			return nil, err
		}
		if sc.PointCache != nil {
			if cp, ok := sc.PointCache.GetPoint(digests[p]); ok {
				cached[p] = &cp
			}
		}
	}
	x := newScenarioExec(sc)
	if err := x.traceBuffers(ctx, eng, grid, cached); err != nil {
		return nil, err
	}
	em := &streamEmitter{ctx: ctx, sc: sc, grid: grid, digests: digests, cached: cached, yield: yield}

	// Every output replays through one table of distinct (program,
	// platform) pairs, each replayed once however many grid points share
	// it: a chunks axis varies only the overlapped flavors, so the
	// chunk-independent base replays one time, not once per chunk count,
	// and what-if points on one platform share their base and
	// overlap-real references. Deduped points reuse the same measurement —
	// deterministic replays make that byte-identical to replaying each
	// point independently.
	type replayJob struct {
		pt gridPoint
		f  Flavor
	}
	var jobs []replayJob
	var uses []int
	// Point p's flavors, in flavorsAt order, replay as jobs
	// jobOf[first[p]:first[p+1]].
	jobOf := make([]int, 0, len(grid)*len(sc.Flavors))
	first := make([]int, len(grid)+1)
	seen := map[string]int{}
	for p, pt := range grid {
		first[p] = len(jobOf)
		if cached[p] != nil {
			continue
		}
		platJSON, err := pt.plat.CanonicalJSON()
		if err != nil {
			return nil, err
		}
		for _, f := range x.flavorsAt(pt) {
			ranks, chunks := pt.ranks, pt.chunks
			if sc.Trace != nil {
				ranks, chunks = 0, 0
			} else if f == FlavorBase {
				chunks = sc.Tracer.Chunks // the cache's base programs ignore chunks too
			}
			key := fmt.Sprintf("%d|%d|%s|%s", ranks, chunks, f, platJSON)
			j, ok := seen[key]
			if !ok {
				j = len(jobs)
				seen[key] = j
				jobs = append(jobs, replayJob{pt: pt, f: f})
				uses = append(uses, 0)
			}
			jobOf = append(jobOf, j)
			uses[j]++
		}
	}
	first[len(grid)] = len(jobOf)
	// A measurement is retained only while some unemitted point still
	// references it; jobsDone tracks the contiguous prefix of completed
	// jobs, which (job indices being assigned in first-use order) is
	// exactly what makes a point's measurements complete.
	measures := map[int]replayed{}
	jobsDone := 0
	var ms []replayed // the measurements of the point in assembly; assemble keeps none
	em.build = func(p int) (ScenarioPoint, bool, error) {
		js := jobOf[first[p]:first[p+1]]
		for _, j := range js {
			if j >= jobsDone {
				return ScenarioPoint{}, false, nil
			}
		}
		ms = ms[:0]
		for _, j := range js {
			ms = append(ms, measures[j])
			if uses[j]--; uses[j] == 0 {
				delete(measures, j)
			}
		}
		pt, err := x.assemble(grid[p], ms)
		pt.Coords, pt.Digest = grid[p].coords, digests[p]
		return pt, true, err
	}
	if err := em.advance(); err != nil { // cached prefix before any job
		return nil, err
	}
	shards := sc.ReplayShards
	if shards <= 0 {
		shards = pointShards(eng, len(jobs))
	}
	err = engine.MapStream(ctx, eng, len(jobs), func(ctx context.Context, j int) (replayed, error) {
		return x.replay(jobs[j].pt, jobs[j].f, shards)
	}, func(j int, m replayed) error {
		measures[j] = m
		jobsDone = j + 1
		return em.advance()
	})
	if err != nil {
		return nil, err
	}
	// Trailing cached points (and the whole grid when nothing computed).
	if err := em.advance(); err != nil {
		return nil, err
	}
	return hdr, nil
}

// pointShards is the one automatic shard policy: it picks the
// intra-point shard request for a grid of njobs replay jobs whenever
// Scenario.ReplayShards leaves the choice to the planner. A grid with at
// least as many jobs as the engine has workers already saturates the
// cores through inter-point parallelism, so every point replays
// serially; a small grid (one point, a handful of flavors) leaves
// workers idle, and those move inside each replay as conservative-PDES
// shards instead (sim.ReplaySummary). Sharded and serial replays are
// byte-identical, so the choice is pure scheduling — it can never change
// a result. Platforms that cannot shard fall back to serial inside
// sim.EffectiveShards.
func pointShards(eng *engine.Engine, njobs int) int {
	if eng == nil {
		eng = engine.Default()
	}
	w := eng.Workers()
	if njobs <= 0 || njobs >= w {
		return 1
	}
	// Split the worker pool evenly across the in-flight jobs.
	return w / njobs
}
