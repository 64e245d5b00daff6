package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestAddObserverComposes: multiple observers coexist, each sees every
// event, and removal detaches exactly one registration.
func TestAddObserverComposes(t *testing.T) {
	e := New(2)
	var a, b atomic.Int64
	removeA := e.AddObserver(func(ev JobEvent) {
		if ev.Done {
			a.Add(1)
		}
	})
	removeB := e.AddObserver(func(ev JobEvent) {
		if ev.Done {
			b.Add(1)
		}
	})

	run := func(n int) {
		t.Helper()
		if _, err := Map(context.Background(), e, n, func(ctx context.Context, i int) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	run(5)
	if a.Load() != 5 || b.Load() != 5 {
		t.Fatalf("after 5 jobs: a=%d b=%d, want 5/5", a.Load(), b.Load())
	}

	// Removing one observer must not touch the other.
	removeA()
	run(3)
	if a.Load() != 5 || b.Load() != 8 {
		t.Fatalf("after removeA: a=%d b=%d, want 5/8", a.Load(), b.Load())
	}
	removeA() // double-remove is a no-op
	removeB()
	run(2)
	if b.Load() != 8 {
		t.Fatalf("after removeB: b=%d, want 8", b.Load())
	}
}

// TestJobEventDurations checks that Done events carry the execution
// duration and that the telemetry job histograms advance.
func TestJobEventDurations(t *testing.T) {
	e := New(2)
	before := telemetry.Default().Counter("engine_jobs_started_total", "").Value()
	var sawElapsed atomic.Bool
	remove := e.AddObserver(func(ev JobEvent) {
		if ev.Done && ev.Elapsed >= 2*time.Millisecond {
			sawElapsed.Store(true)
		}
		if ev.Wait < 0 || ev.Elapsed < 0 {
			t.Errorf("negative durations: %+v", ev)
		}
	})
	defer remove()
	_, err := Map(context.Background(), e, 4, func(ctx context.Context, i int) (int, error) {
		time.Sleep(3 * time.Millisecond)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawElapsed.Load() {
		t.Fatal("no Done event carried the job's elapsed time")
	}
	if after := telemetry.Default().Counter("engine_jobs_started_total", "").Value(); after != before+4 {
		t.Fatalf("engine_jobs_started_total advanced %d -> %d, want +4", before, after)
	}
}
