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

func TestMapAggregatesPerJobErrors(t *testing.T) {
	e := New(2)
	boom := errors.New("boom")
	out, err := Map(context.Background(), e, 6, func(ctx context.Context, i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("job-specific %d: %w", i, boom)
		}
		return i + 1, nil
	})
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	var agg Errors
	if !errors.As(err, &agg) {
		t.Fatalf("error %T is not engine.Errors", err)
	}
	if len(agg) != 3 {
		t.Fatalf("aggregated %d errors, want 3: %v", len(agg), err)
	}
	for k, je := range agg {
		if want := 2*k + 1; je.Index != want {
			t.Fatalf("error %d has index %d, want %d", k, je.Index, want)
		}
	}
	if !errors.Is(err, boom) {
		t.Fatal("errors.Is cannot reach the wrapped job error")
	}
	// Successful jobs still delivered their results.
	for i := 0; i < 6; i += 2 {
		if out[i] != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], i+1)
		}
	}
}

func TestMapRecoversJobPanics(t *testing.T) {
	e := New(2)
	_, err := Map(context.Background(), e, 3, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			panic("kaboom")
		}
		return i, nil
	})
	var agg Errors
	if !errors.As(err, &agg) || len(agg) != 1 || agg[0].Index != 1 {
		t.Fatalf("panic not reported as job 1's error: %v", err)
	}
}

func TestMapCancellation(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
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
	// submitting goroutine. Both block until cancel, so the loop cannot
	// reach job 2 before the context dies.
	<-bothStarted
	cancel()
	<-done
	if err == nil {
		t.Fatal("cancelled Map returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if n := ran.Load(); n != 2 {
		t.Fatalf("%d jobs ran, want exactly 2 (one pooled, one inline)", n)
	}
	var agg Errors
	if !errors.As(err, &agg) || len(agg) != 8 || agg[0].Index != 2 {
		t.Fatalf("unstarted jobs not reported from index 2: %v", err)
	}
	if out[9] != 0 {
		t.Fatalf("cancelled job left non-zero result %d", out[9])
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
	// Tracing reads neither the chunk count nor the element size: a
	// change to either reuses the traced run, built under the new config.
	for _, cfg := range []tracer.Config{
		{Chunks: 8, ElemBytes: 8, LoadCost: 1, StoreCost: 1},
		{Chunks: 4, ElemBytes: 4, LoadCost: 1, StoreCost: 1},
	} {
		run, err := c.Trace("cached-app", 2, cfg, kernel)
		if err != nil {
			t.Fatal(err)
		}
		if run.Cfg != cfg || traced.Load() != 1 || c.Len() != 1 {
			t.Fatalf("config %+v: run config %+v, %d traces, %d entries; want the same config, 1 trace, 1 entry",
				cfg, run.Cfg, traced.Load(), c.Len())
		}
	}
	// An access cost changes the traced clocks: separate entry.
	cfg := tracer.DefaultConfig()
	cfg.LoadCost = 2
	if _, err := c.Trace("cached-app", 2, cfg, kernel); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || traced.Load() != 2 {
		t.Fatalf("cache holds %d entries after %d traces, want 2 after a LoadCost change", c.Len(), traced.Load())
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
