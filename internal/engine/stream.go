package engine

import (
	"context"
	"time"
)

// streamItem is one completed job travelling from a worker to the
// reordering consumer.
type streamItem[T any] struct {
	i   int
	val T
	err error
}

// MapStream runs n jobs across the pool and delivers each result to emit
// in submission order as soon as the result and all its predecessors
// have completed. It is the engine's one fan-out loop; Map collects it
// into a slice.
//
// The reorder buffer between out-of-order completions and the in-order
// emit is bounded by a window scaled to the pool, 2*Workers+16 jobs: at
// most that many jobs may be completed-or-running beyond the last
// emitted one, so a slow consumer exerts backpressure on submission
// instead of accumulating the whole result set, and peak memory is
// O(window), not O(n). emit runs on the calling goroutine.
//
// MapStream is fail-fast: the first failing job (in submission order)
// aborts the stream with its *JobError, an error from emit aborts with
// that error, and a cancelled ctx aborts with ctx's cause. Jobs already
// running are allowed to finish (they are expected to honour ctx),
// unstarted jobs are never submitted, and no further emit calls are made
// after an abort — including results already buffered when ctx is
// cancelled. MapStream does not return until every submitted job has
// finished.
//
// Submission runs on an internal goroutine under the caller-runs
// discipline (see the package comment), so jobs may themselves call Map
// or MapStream on the same engine without deadlocking.
func MapStream[T any](ctx context.Context, e *Engine, n int, fn func(ctx context.Context, i int) (T, error), emit func(i int, v T) error) error {
	if e == nil {
		e = Default()
	}
	if n <= 0 {
		return nil
	}
	window := 2*e.workers + 16
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan streamItem[T], window)
	tokens := make(chan struct{}, window)
	subDone := make(chan int, 1)
	go func() {
		submitted := 0
		defer func() { subDone <- submitted }()
		for i := 0; i < n; i++ {
			// A window token per in-flight job: acquired before
			// submission, released by the consumer after the job's
			// result is emitted. This is the backpressure bound — and it
			// also guarantees the results channel (capacity window)
			// never blocks a worker, so a slow stream consumer cannot
			// wedge pool slots shared with other submitters.
			select {
			case tokens <- struct{}{}:
			case <-cctx.Done():
				return
			}
			// A free token and a cancellation can be ready together, and
			// select picks either: no job starts once the run is over.
			if cctx.Err() != nil {
				return
			}
			submitted++
			submit := time.Now()
			select {
			case e.sem <- struct{}{}:
				go func(i int, submit time.Time) {
					defer func() { <-e.sem }()
					v, err := runJob(e, cctx, i, submit, fn)
					results <- streamItem[T]{i: i, val: v, err: err}
				}(i, submit)
			default:
				// Pool saturated: the submitter works instead of waiting.
				v, err := runJob(e, cctx, i, submit, fn)
				results <- streamItem[T]{i: i, val: v, err: err}
			}
		}
	}()

	buf := make(map[int]streamItem[T])
	next, received := 0, 0
	var abort error
	for next < n && abort == nil {
		var it streamItem[T]
		select {
		case it = <-results:
		case <-cctx.Done():
			abort = context.Cause(ctx)
			continue
		}
		received++
		buf[it.i] = it
		// Emit the contiguous completed prefix. Failures surface in
		// deterministic submission order: a failed job aborts only when
		// the emission cursor reaches it, after its predecessors'
		// results were delivered.
		for abort == nil {
			// Re-check cancellation between emissions so a cancel during
			// emit stops the stream even when later results are already
			// buffered. cctx only closes through ctx here (the abort
			// cancel comes after this loop), so ctx carries the cause.
			if cctx.Err() != nil {
				abort = context.Cause(ctx)
				break
			}
			b, ok := buf[next]
			if !ok {
				break
			}
			if b.err != nil {
				abort = &JobError{Index: next, Err: b.err}
				break
			}
			if err := emit(next, b.val); err != nil {
				abort = err
				break
			}
			delete(buf, next)
			next++
			<-tokens
		}
	}
	if next >= n {
		return nil
	}
	// Abort: stop the submitter, then drain every job it already
	// launched so no goroutine is left sending into results.
	cancel()
	submitted := <-subDone
	for received < submitted {
		<-results
		received++
	}
	return abort
}
