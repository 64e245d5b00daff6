package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
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
	build func(p int) (ScenarioPoint, bool)
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
		pt, ok := e.build(p)
		if !ok {
			return nil
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
	em := &streamEmitter{ctx: ctx, sc: sc, grid: grid, digests: digests, cached: cached, yield: yield}

	switch sc.Output {
	case OutputFinish, OutputTraffic:
		// Distinct (program, platform) pairs replay once however many
		// grid points share them: a chunks axis varies only the
		// overlapped flavors, so the chunk-independent base replays one
		// time, not once per chunk count. Deduped points reuse the same
		// measurement — deterministic replays make that byte-identical
		// to replaying each point independently.
		nf := len(sc.Flavors)
		type measureJob struct {
			pt gridPoint
			f  Flavor
		}
		jobOf := make([]int, len(grid)*nf)
		maxJob := make([]int, len(grid))
		var jobs []measureJob
		var uses []int
		seen := map[string]int{}
		for p, pt := range grid {
			maxJob[p] = -1
			if cached[p] != nil {
				continue
			}
			platJSON, err := pt.plat.CanonicalJSON()
			if err != nil {
				return nil, err
			}
			for k, f := range sc.Flavors {
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
					jobs = append(jobs, measureJob{pt: pt, f: f})
					uses = append(uses, 0)
				}
				jobOf[p*nf+k] = j
				uses[j]++
				if j > maxJob[p] {
					maxJob[p] = j
				}
			}
		}
		// A measurement is retained only while some unemitted point still
		// references it; jobsDone tracks the contiguous prefix of
		// completed jobs, which (job indices being assigned in first-use
		// order) is exactly what makes a point's measurements complete.
		measures := map[int]FlavorMeasure{}
		jobsDone := 0
		em.build = func(p int) (ScenarioPoint, bool) {
			if maxJob[p] >= jobsDone {
				return ScenarioPoint{}, false
			}
			ms := make([]FlavorMeasure, nf)
			for k := 0; k < nf; k++ {
				j := jobOf[p*nf+k]
				ms[k] = measures[j]
				if uses[j]--; uses[j] == 0 {
					delete(measures, j)
				}
			}
			return ScenarioPoint{Coords: grid[p].coords, Digest: digests[p], Flavors: ms}, true
		}
		if err := em.advance(); err != nil { // cached prefix before any job
			return nil, err
		}
		shards := sc.ReplayShards
		if shards == 0 {
			shards = pointShards(eng, len(jobs))
		}
		err = engine.MapStream(ctx, eng, len(jobs), 0, func(ctx context.Context, j int) (FlavorMeasure, error) {
			pt, f := jobs[j].pt, jobs[j].f
			t0 := time.Now()
			prog, digest, err := x.progFor(pt, f)
			if err != nil {
				return FlavorMeasure{}, err
			}
			mStageCompile.ObserveSince(t0)
			t0 = time.Now()
			sum, err := sim.ReplaySummary(pt.plat, prog, shards)
			if err != nil {
				var dl *sim.DeadlockError
				if errors.As(err, &dl) && dl.FaultInduced() {
					// Injected hard faults severed ranks this flavor
					// needed. In a what-breaks-first grid that is a result,
					// not a failure: report the point as faulted instead of
					// aborting the study. Genuine trace deadlocks (nothing
					// dropped) stay hard errors below.
					mStageReplay.ObserveSince(t0)
					mPtsFaulted.Inc()
					return FlavorMeasure{
						Flavor:      f,
						TraceDigest: digest,
						Fault:       fmt.Sprintf("deadlock: %d ranks blocked, %d transfers lost to downed NICs/links", len(dl.Blocked), dl.Dropped),
					}, nil
				}
				return FlavorMeasure{}, fmt.Errorf("core: scenario point %v %s: %w", pt.coords, f, err)
			}
			mStageReplay.ObserveSince(t0)
			m := FlavorMeasure{Flavor: f, TraceDigest: digest, FinishSec: sum.FinishSec}
			if sc.Output == OutputTraffic {
				m.Traffic = &WireTraffic{
					IntraBytes: sum.IntraBytes,
					InterBytes: sum.InterBytes,
					IntraMsgs:  sum.IntraMsgs,
					InterMsgs:  sum.InterMsgs,
				}
			}
			return m, nil
		}, func(j int, m FlavorMeasure) error {
			measures[j] = m
			jobsDone = j + 1
			return em.advance()
		})
		if err != nil {
			return nil, err
		}
	case OutputWhatIf:
		err = streamPerPoint(ctx, eng, em, func(ctx context.Context, pt gridPoint) (ScenarioPoint, error) {
			t0 := time.Now()
			app, err := x.tracedApp(pt)
			if err != nil {
				return ScenarioPoint{}, err
			}
			mStageCompile.ObserveSince(t0)
			t0 = time.Now()
			wi, err := WhatIfRun(ctx, eng, x.traces, app, pt.ranks, x.tracerAt(pt.chunks), pt.plat)
			if err != nil {
				return ScenarioPoint{}, err
			}
			mStageReplay.ObserveSince(t0)
			pd, err := pt.plat.Digest()
			if err != nil {
				return ScenarioPoint{}, err
			}
			return ScenarioPoint{WhatIf: wi.Wire(pt.ranks, pd)}, nil
		})
		if err != nil {
			return nil, err
		}
	case OutputReport:
		err = streamPerPoint(ctx, eng, em, func(ctx context.Context, pt gridPoint) (ScenarioPoint, error) {
			t0 := time.Now()
			app, err := x.tracedApp(pt)
			if err != nil {
				return ScenarioPoint{}, err
			}
			mStageCompile.ObserveSince(t0)
			t0 = time.Now()
			rep, err := AnalyzeRun(ctx, eng, x.traces, app, pt.ranks, x.tracerAt(pt.chunks), pt.plat)
			if err != nil {
				return ScenarioPoint{}, err
			}
			mStageReplay.ObserveSince(t0)
			wire, err := rep.Wire()
			if err != nil {
				return ScenarioPoint{}, err
			}
			return ScenarioPoint{Report: wire}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Trailing cached points (and the whole grid when nothing computed).
	if err := em.advance(); err != nil {
		return nil, err
	}
	return hdr, nil
}

// pointShards picks the intra-point shard request for a grid of njobs
// replay jobs. A grid with at least as many jobs as the engine has
// workers already saturates the cores through inter-point parallelism,
// so every point replays serially; a small grid (one point, a handful of
// flavors) leaves workers idle, and those move inside each replay as
// conservative-PDES shards instead (sim.ReplaySummary). Sharded and
// serial replays are byte-identical, so the choice is pure scheduling —
// it can never change a result. Platforms that cannot shard fall back to
// serial inside sim.EffectiveShards.
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

// streamPerPoint runs one engine job per uncached grid point (what-if
// and report outputs have no cross-point sharing to dedupe) and streams
// the assembled points through the emitter.
func streamPerPoint(ctx context.Context, eng *engine.Engine, em *streamEmitter, fn func(ctx context.Context, pt gridPoint) (ScenarioPoint, error)) error {
	var uncached []int
	for p := range em.grid {
		if em.cached[p] == nil {
			uncached = append(uncached, p)
		}
	}
	done := map[int]ScenarioPoint{} // grid index → computed payload
	em.build = func(p int) (ScenarioPoint, bool) {
		pt, ok := done[p]
		if !ok {
			return ScenarioPoint{}, false
		}
		delete(done, p)
		pt.Coords = em.grid[p].coords
		pt.Digest = em.digests[p]
		return pt, true
	}
	if err := em.advance(); err != nil { // cached prefix before any job
		return err
	}
	return engine.MapStream(ctx, eng, len(uncached), 0, func(ctx context.Context, i int) (ScenarioPoint, error) {
		return fn(ctx, em.grid[uncached[i]])
	}, func(i int, pt ScenarioPoint) error {
		done[uncached[i]] = pt
		return em.advance()
	})
}
