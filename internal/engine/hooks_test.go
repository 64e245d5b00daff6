package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestStatsCounters checks the lifecycle counters across successes,
// failures, and panics. A failure stops its run, so each run fails only
// in its last job, which starts after every other job of the run.
func TestStatsCounters(t *testing.T) {
	e := New(2)
	boom := errors.New("boom")
	for _, fail := range []func(){
		func() { panic("kaboom") },
		func() {},
	} {
		_, err := Map(context.Background(), e, 3, func(ctx context.Context, i int) (int, error) {
			if i == 2 {
				fail()
				return 0, boom
			}
			return i, nil
		})
		if err == nil {
			t.Fatal("expected job 2's error")
		}
	}
	st := e.Stats()
	if st.Started != 6 || st.Completed != 6 {
		t.Fatalf("started/completed = %d/%d, want 6/6", st.Started, st.Completed)
	}
	if st.Failed != 2 {
		t.Fatalf("failed = %d, want 2 (one error, one panic)", st.Failed)
	}
}

// TestStatsSkipsCancelledJobs checks that jobs never started (context
// already cancelled at submission) do not count as engine work.
func TestStatsSkipsCancelledJobs(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, e, 4, func(ctx context.Context, i int) (int, error) { return i, nil })
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if st := e.Stats(); st.Started != 0 {
		t.Fatalf("started = %d, want 0 for pre-cancelled submissions", st.Started)
	}
}

// TestObserverSeesEveryJob checks the observer hook fires a start and a
// matching done event per job, from both pool workers and the caller-runs
// inline path.
func TestObserverSeesEveryJob(t *testing.T) {
	e := New(2)
	var mu sync.Mutex
	starts, dones := map[int]int{}, map[int]int{}
	var failedSeen int
	remove := e.AddObserver(func(ev JobEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Done {
			dones[ev.Index]++
			if ev.Err != nil {
				failedSeen++
			}
		} else {
			starts[ev.Index]++
		}
	})
	const n = 20
	// A failure stops its run: only the last job, which starts after all
	// the others, fails.
	_, err := Map(context.Background(), e, n, func(ctx context.Context, i int) (int, error) {
		if i == n-1 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatalf("expected error from job %d", n-1)
	}
	for i := 0; i < n; i++ {
		if starts[i] != 1 || dones[i] != 1 {
			t.Fatalf("job %d: starts=%d dones=%d, want 1/1", i, starts[i], dones[i])
		}
	}
	if failedSeen != 1 {
		t.Fatalf("failed events = %d, want 1", failedSeen)
	}

	// Removing the observer stops notifications but keeps counters.
	remove()
	if _, err := Map(context.Background(), e, 3, func(ctx context.Context, i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(starts) != n {
		t.Fatalf("observer fired after removal: %d indices", len(starts))
	}
	if st := e.Stats(); st.Started != n+3 {
		t.Fatalf("started = %d, want %d", st.Started, n+3)
	}
}
