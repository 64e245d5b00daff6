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
//   - deterministic result ordering: Map returns results indexed exactly
//     like its inputs, so parallel sweeps are byte-identical to serial ones;
//   - per-job error aggregation: every failing job is reported with its
//     index (Errors), not just the first failure;
//   - context-based cancellation: unstarted jobs inherit ctx.Err() and the
//     submitting loop stops promptly.
//
// Deadlock-freedom comes from the caller-runs discipline: a submitter
// never blocks waiting for a pool slot. It opportunistically hands jobs to
// free workers and otherwise runs them inline on its own goroutine. A job
// may therefore call Map on the same engine — directly or through any of
// package core's studies, which take an engine (nil selects Default) —
// without risking a pool whose every worker waits on sub-jobs. The cost is that each
// concurrently-submitting goroutine may execute at most one job itself, so
// total parallelism is bounded by Workers plus the number of concurrent
// Map callers (each of which would otherwise sit idle).
package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
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

// JobError is the failure of one job, tagged with its submission index.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap exposes the job's underlying error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Errors aggregates every failed job of one Map call, ordered by job
// index. Map returns it (as error) when at least one job failed.
type Errors []*JobError

func (e Errors) Error() string {
	if len(e) == 1 {
		return "engine: " + e[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d jobs failed: ", len(e))
	for i, je := range e {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(je.Error())
	}
	return b.String()
}

// Unwrap exposes the individual job errors to errors.Is/As.
func (e Errors) Unwrap() []error {
	out := make([]error, len(e))
	for i, je := range e {
		out[i] = je
	}
	return out
}

// Map runs n jobs across the pool and returns their results in submission
// order: out[i] is job i's result. All jobs run to completion (or
// cancellation) before Map returns; failures are aggregated into an Errors
// value carrying each failed job's index, with out[i] left at the zero
// value for failed jobs. When ctx is cancelled, running jobs are expected
// to honour ctx themselves; jobs not yet started fail with ctx.Err().
// A nil engine uses Default(). A panicking job is reported as that job's
// error instead of crashing the pool.
//
// Submission follows the caller-runs discipline (see the package comment):
// a job goes to a pool worker when a slot is free and otherwise runs
// inline on the submitting goroutine, so Map never deadlocks however it
// nests.
func Map[T any](ctx context.Context, e *Engine, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if e == nil {
		e = Default()
	}
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			cancelFrom(errs, i, ctx)
			break
		}
		submit := time.Now()
		select {
		case e.sem <- struct{}{}:
			wg.Add(1)
			// submit travels as a parameter, like i: capturing it in the
			// closure would heap-allocate one escape per pooled job.
			go func(i int, submit time.Time) {
				defer wg.Done()
				defer func() { <-e.sem }()
				out[i], errs[i] = runJob(e, ctx, i, submit, fn)
			}(i, submit)
		default:
			// Pool saturated: the submitter works instead of waiting.
			out[i], errs[i] = runJob(e, ctx, i, submit, fn)
		}
	}
	wg.Wait()
	return out, aggregate(errs)
}

func runJob[T any](e *Engine, ctx context.Context, i int, submit time.Time, fn func(ctx context.Context, i int) (T, error)) (out T, err error) {
	start := time.Now()
	wait := start.Sub(submit)
	e.noteStart(i, wait)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: job %d panicked: %v", i, r)
		}
		e.noteDone(i, err, wait, time.Since(start))
	}()
	return fn(ctx, i)
}

// cancelFrom marks jobs [i, n) as failed with the context's error.
func cancelFrom(errs []error, i int, ctx context.Context) {
	err := context.Cause(ctx)
	if err == nil {
		err = ctx.Err()
	}
	for j := i; j < len(errs); j++ {
		errs[j] = err
	}
}

func aggregate(errs []error) error {
	var agg Errors
	for i, err := range errs {
		if err != nil {
			agg = append(agg, &JobError{Index: i, Err: err})
		}
	}
	if len(agg) == 0 {
		return nil
	}
	return agg
}
