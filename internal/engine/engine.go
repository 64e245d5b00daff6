// Package engine is the concurrent experiment engine of the framework: it
// runs independent experiment jobs — trace replays, sweep points, what-if
// variants, whole-app analyses — across a bounded goroutine worker pool.
//
// The trace-replay methodology of the paper is embarrassingly parallel:
// an application is traced once and the resulting event log is replayed
// many times under varied parameters (chunk counts, bandwidths, idealized
// buffers, platform configurations). Every replay is a pure function of
// (platform config, trace), so the engine fans replays out across workers
// while guaranteeing:
//
//   - bounded concurrency: at most Workers jobs run at once, regardless of
//     how many jobs are submitted or how submissions nest;
//   - deterministic result ordering: MapStream emits results in submission
//     order and Map returns them indexed exactly like its inputs, so
//     parallel sweeps are byte-identical to serial ones;
//   - fail-fast errors: the first failing job in submission order stops
//     the run and is reported with its index (JobError);
//   - context-based cancellation: no job starts once ctx is done, and the
//     run returns ctx's cause.
//
// MapStream is the one fan-out loop; Map collects its results into a
// slice. Deadlock-freedom comes from the caller-runs discipline: a
// submitter never blocks waiting for a pool slot. It opportunistically
// hands jobs to free workers and otherwise runs them inline on its own
// goroutine. A job may therefore call Map on the same engine — directly
// or through any of package core's studies, which take an engine (nil
// selects Default) — without risking a pool whose every worker waits on
// sub-jobs. The cost is that each submitter may execute at most one job
// itself, so total parallelism is bounded by Workers plus the number of
// concurrent Map and MapStream calls.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Engine is a bounded worker pool plus a shared trace cache. The zero
// value is not usable; create one with New. An Engine is safe for
// concurrent use and may be shared by any number of experiments.
type Engine struct {
	workers int
	sem     chan struct{}
	traces  *TraceCache

	started   atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64

	// Observer chain: a copy-on-write list so notification is a single
	// atomic load on the job hot path while installs stay rare and cheap.
	obsMu     sync.Mutex
	observers atomic.Pointer[[]*obsEntry]
}

// New returns an engine running at most workers jobs concurrently.
// workers <= 0 selects GOMAXPROCS, the number of usable CPUs.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers: workers,
		sem:     make(chan struct{}, workers),
		traces:  NewTraceCache(),
	}
}

// Workers returns the concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Traces returns the engine's shared trace cache: trace an application
// once, fan its replays out across the pool.
func (e *Engine) Traces() *TraceCache { return e.traces }

// Stats is a snapshot of the engine's job lifecycle counters over its
// whole lifetime. Completed counts every finished job, including failed
// ones; Started - Completed is the number of jobs currently executing.
type Stats struct {
	Started   uint64 `json:"started"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
}

// Stats returns the engine's lifetime job counters. Callers such as the
// service layer diff two snapshots to prove that a cached result spawned
// no new engine work.
func (e *Engine) Stats() Stats {
	// Read completion counters before Started so a concurrent job can
	// never make the snapshot claim more completions than starts.
	failed := e.failed.Load()
	completed := e.completed.Load()
	return Stats{
		Started:   e.started.Load(),
		Completed: completed,
		Failed:    failed,
	}
}

// JobEvent is one job lifecycle notification: Done=false when the job
// starts executing, Done=true (with its error, if any) when it finishes.
// Wait is the delay between the job's submission and its execution
// start; Elapsed is the execution duration (set only on Done events).
type JobEvent struct {
	Index   int
	Done    bool
	Err     error
	Wait    time.Duration
	Elapsed time.Duration
}

// JobObserver receives job lifecycle events. Observers run inline on the
// executing goroutine and must be fast and safe for concurrent calls.
type JobObserver func(JobEvent)

// obsEntry wraps an observer so removal can match by identity (func
// values are not comparable).
type obsEntry struct{ fn JobObserver }

// AddObserver appends fn to the engine's observer chain — every
// observer sees every event — and returns a function that removes
// exactly this registration, leaving hooks installed by other layers in
// place.
func (e *Engine) AddObserver(fn JobObserver) (remove func()) {
	entry := &obsEntry{fn: fn}
	e.obsMu.Lock()
	var next []*obsEntry
	if cur := e.observers.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, entry)
	e.observers.Store(&next)
	e.obsMu.Unlock()
	return func() {
		e.obsMu.Lock()
		defer e.obsMu.Unlock()
		cur := e.observers.Load()
		if cur == nil {
			return
		}
		var rest []*obsEntry
		for _, o := range *cur {
			if o != entry {
				rest = append(rest, o)
			}
		}
		if rest == nil {
			e.observers.Store(nil)
			return
		}
		e.observers.Store(&rest)
	}
}

// notify publishes ev to every observer in installation order.
func (e *Engine) notify(ev JobEvent) {
	if list := e.observers.Load(); list != nil {
		for _, o := range *list {
			o.fn(ev)
		}
	}
}

// noteStart records (and publishes) the start of one job.
func (e *Engine) noteStart(i int, wait time.Duration) {
	e.started.Add(1)
	mJobsStarted.Inc()
	mJobWait.Observe(wait.Nanoseconds())
	e.notify(JobEvent{Index: i, Wait: wait})
}

// noteDone records (and publishes) the completion of one job.
func (e *Engine) noteDone(i int, err error, wait, elapsed time.Duration) {
	if err != nil {
		e.failed.Add(1)
		mJobsFailed.Inc()
	}
	e.completed.Add(1)
	mJobsCompleted.Inc()
	mJobSeconds.Observe(elapsed.Nanoseconds())
	e.notify(JobEvent{Index: i, Done: true, Err: err, Wait: wait, Elapsed: elapsed})
}

// Process-wide engine instruments: all engines in the process accumulate
// into one family (the serving daemon runs exactly one engine; tests
// sharing the registry only ever assert deltas they caused themselves).
var (
	mJobsStarted   = telemetry.Default().Counter("engine_jobs_started_total", "jobs started by the worker pool")
	mJobsCompleted = telemetry.Default().Counter("engine_jobs_completed_total", "jobs finished, including failed ones")
	mJobsFailed    = telemetry.Default().Counter("engine_jobs_failed_total", "jobs finished with an error")
	mJobWait       = telemetry.Default().Histogram("engine_job_wait_seconds", "delay between job submission and execution start", 1e-9)
	mJobSeconds    = telemetry.Default().Histogram("engine_job_seconds", "job execution duration", 1e-9)
	mTraceRuns     = telemetry.Default().Counter("engine_trace_runs_total", "applications traced by the trace cache")
	mProgramBuilds = telemetry.Default().CounterVec("engine_program_builds_total", "trace-cache builds of one flavor's program: trace build, validation, compilation and digest", "flavor")
	mAnalyses      = telemetry.Default().Counter("engine_pattern_analyses_total", "Table II pattern analyses run by the trace cache, one per traced run")
)

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide engine, created on first use with
// GOMAXPROCS workers. Library entry points that take an optional *Engine
// fall back to it when handed nil.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New(0) })
	return defaultEngine
}

// JobError is the failure of one job, tagged with its submission index:
// what Map and MapStream return when a job fails.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return fmt.Sprintf("engine: job %d: %v", e.Index, e.Err) }

// Unwrap exposes the job's underlying error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Map runs n jobs across the pool and returns their results in submission
// order: out[i] is job i's result. It collects MapStream's emissions, so
// it shares MapStream's contract: the first failing job in submission
// order stops the run and Map returns that job's *JobError, and a
// cancelled ctx stops it with ctx's cause. On error no results are
// returned. A nil engine uses Default(). A panicking job is reported as
// that job's error instead of crashing the pool.
func Map[T any](ctx context.Context, e *Engine, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := MapStream(ctx, e, n, fn, func(i int, v T) error {
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runJob executes job i on the current goroutine, publishing its
// lifecycle events and turning a panic into the job's error.
func runJob[T any](e *Engine, ctx context.Context, i int, submit time.Time, fn func(ctx context.Context, i int) (T, error)) (out T, err error) {
	start := time.Now()
	wait := start.Sub(submit)
	e.noteStart(i, wait)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		e.noteDone(i, err, wait, time.Since(start))
	}()
	return fn(ctx, i)
}
