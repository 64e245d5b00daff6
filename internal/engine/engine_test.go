package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tracer"
)

func TestMapOrdersResultsDeterministically(t *testing.T) {
	e := New(4)
	out, err := Map(context.Background(), e, 100, func(ctx context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	e := New(workers)
	var cur, peak atomic.Int32
	_, err := Map(context.Background(), e, 50, func(ctx context.Context, i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Caller-runs discipline: the pool contributes at most `workers`
	// concurrent jobs and the one submitting goroutine at most one more.
	if p := peak.Load(); p > workers+1 {
		t.Fatalf("peak concurrency %d exceeds pool bound %d + 1 submitter", p, workers)
	}
}

// TestMapAggregatesPerJobErrors: of several failing jobs, Map reports the
// lowest failing index, even when a higher index fails first, as one
// *JobError whose text names the job and wraps its error.
func TestMapAggregatesPerJobErrors(t *testing.T) {
	e := New(4) // a slot for every job: none runs inline on the submitter
	boom := errors.New("boom")
	higherFailed := make(chan struct{})
	out, err := Map(context.Background(), e, 4, func(ctx context.Context, i int) (int, error) {
		switch i {
		case 1:
			<-higherFailed
			return 0, fmt.Errorf("job-specific %d: %w", i, boom)
		case 3:
			close(higherFailed)
			return 0, fmt.Errorf("job-specific %d: %w", i, boom)
		}
		return i + 1, nil
	})
	var je *JobError
	if !errors.As(err, &je) || je.Index != 1 {
		t.Fatalf("err = %v, want job 1's JobError", err)
	}
	if want := "engine: job 1: job-specific 1: boom"; err.Error() != want {
		t.Fatalf("err reads %q, want %q", err, want)
	}
	if !errors.Is(err, boom) {
		t.Fatal("errors.Is cannot reach the wrapped job error")
	}
	if out != nil {
		t.Fatalf("failed Map returned results %v", out)
	}
}

// TestMapRecoversJobPanics: a panicking job surfaces as that job's error
// instead of crashing the pool.
func TestMapRecoversJobPanics(t *testing.T) {
	e := New(2)
	_, err := Map(context.Background(), e, 3, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			panic("kaboom")
		}
		return i, nil
	})
	var je *JobError
	if !errors.As(err, &je) || je.Index != 1 {
		t.Fatalf("panic not reported as job 1's error: %v", err)
	}
	if want := "engine: job 1: panic: kaboom"; err.Error() != want {
		t.Fatalf("err reads %q, want %q", err, want)
	}
}

// TestMapCancellation: cancelling the context stops the run — no job
// starts afterwards — and Map returns the context's cause.
func TestMapCancellation(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancelCause(context.Background())
	stop := errors.New("stop")
	bothStarted := make(chan struct{})
	var ran atomic.Int32
	done := make(chan struct{})
	var out []int
	var err error
	go func() {
		defer close(done)
		out, err = Map(ctx, e, 10, func(ctx context.Context, i int) (int, error) {
			if ran.Add(1) == 2 {
				close(bothStarted)
			}
			<-ctx.Done() // jobs honour the context, as real replays would
			return i, nil
		})
	}()
	// Job 0 holds the single pool slot; job 1 runs inline on the
	// submitting goroutine. Both block until cancel, so the submitter
	// cannot reach job 2 before the context dies.
	<-bothStarted
	cancel(stop)
	<-done
	if err != stop {
		t.Fatalf("cancelled Map returned %v, want the cancel cause", err)
	}
	if n := ran.Load(); n != 2 {
		t.Fatalf("%d jobs ran, want exactly 2 (one pooled, one inline)", n)
	}
	if out != nil {
		t.Fatalf("cancelled Map returned results %v", out)
	}
}

func TestNestedMapDoesNotDeadlock(t *testing.T) {
	// Every worker of a tiny pool submits sub-jobs: with blocking nested
	// acquisition this deadlocks; the inline fallback must complete it.
	e := New(2)
	done := make(chan error, 1)
	go func() {
		_, err := Map(context.Background(), e, 4, func(ctx context.Context, i int) (int, error) {
			subs, err := Map(ctx, e, 4, func(ctx context.Context, j int) (int, error) {
				return i*10 + j, nil
			})
			if err != nil {
				return 0, err
			}
			sum := 0
			for _, v := range subs {
				sum += v
			}
			return sum, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested Map deadlocked")
	}
}

func TestTraceCacheSingleFlight(t *testing.T) {
	c := NewTraceCache()
	var traced atomic.Int32
	kernel := func(p *tracer.Proc) {
		if p.Rank() == 0 {
			traced.Add(1)
		}
		a := p.NewArray("buf", 8)
		for i := 0; i < 8; i++ {
			a.Store(i, float64(i))
		}
	}
	var wg sync.WaitGroup
	runs := make([]*tracer.Run, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run, err := c.Trace("cached-app", 2, tracer.DefaultConfig(), kernel)
			if err != nil {
				t.Error(err)
				return
			}
			runs[g] = run
		}(g)
	}
	wg.Wait()
	if n := traced.Load(); n != 1 {
		t.Fatalf("kernel traced %d times, want 1", n)
	}
	for g := 1; g < 16; g++ {
		if runs[g] != runs[0] {
			t.Fatal("concurrent gets returned distinct runs")
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
	// Tracing reads no chunk count: a new one reuses the traced run,
	// built under the new config.
	cfg := tracer.Config{Chunks: 8}
	run, err := c.Trace("cached-app", 2, cfg, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if run.Cfg != cfg || traced.Load() != 1 || c.Len() != 1 {
		t.Fatalf("config %+v: run config %+v, %d traces, %d entries; want the same config, 1 trace, 1 entry",
			cfg, run.Cfg, traced.Load(), c.Len())
	}
}

func TestDefaultEngineIsUsedForNil(t *testing.T) {
	out, err := Map(context.Background(), nil, 3, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
	if err != nil || len(out) != 3 {
		t.Fatalf("nil-engine Map: out=%v err=%v", out, err)
	}
	if Default().Workers() < 1 {
		t.Fatal("default engine has no workers")
	}
}
