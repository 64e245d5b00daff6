package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapStreamOrder: results arrive through emit in submission order,
// exactly once each, regardless of completion order.
func TestMapStreamOrder(t *testing.T) {
	e := New(8)
	const n = 100
	rng := rand.New(rand.NewSource(42))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(3)) * time.Millisecond
	}
	var got []int
	err := MapStream(context.Background(), e, n, func(ctx context.Context, i int) (int, error) {
		time.Sleep(delays[i])
		return i * i, nil
	}, func(i, v int) error {
		if v != i*i {
			t.Errorf("emit(%d) = %d, want %d", i, v, i*i)
		}
		got = append(got, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("%d emissions, want %d", len(got), n)
	}
	for i, g := range got {
		if g != i {
			t.Fatalf("emission %d carried index %d (out of order)", i, g)
		}
	}
}

// TestMapStreamBackpressure: a slow consumer bounds how far submission
// runs ahead — at most the window, 2*Workers+16 jobs, are ever in flight
// beyond the last emitted result.
func TestMapStreamBackpressure(t *testing.T) {
	e := New(1)
	const n, window = 64, 18
	var started atomic.Int64
	emitted := 0
	err := MapStream(context.Background(), e, n, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		return i, nil
	}, func(i, v int) error {
		// Everything started so far holds a window token that is only
		// released when its result is emitted.
		if s := started.Load(); s > int64(emitted+window) {
			t.Errorf("at emission %d, %d jobs started (window %d)", emitted, s, window)
		}
		emitted++
		time.Sleep(time.Millisecond) // slow consumer
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != n {
		t.Fatalf("%d emissions, want %d", emitted, n)
	}
}

// TestMapStreamFailFast: the first failing job (in submission order)
// aborts the stream with its JobError after its predecessors emitted.
func TestMapStreamFailFast(t *testing.T) {
	e := New(4)
	boom := errors.New("boom")
	var emitted []int
	err := MapStream(context.Background(), e, 20, func(ctx context.Context, i int) (int, error) {
		if i == 7 {
			return 0, boom
		}
		return i, nil
	}, func(i, v int) error {
		emitted = append(emitted, i)
		return nil
	})
	var je *JobError
	if !errors.As(err, &je) || je.Index != 7 || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want JobError{7, boom}", err)
	}
	if len(emitted) != 7 {
		t.Fatalf("emitted %v, want exactly 0..6", emitted)
	}
	for i, g := range emitted {
		if g != i {
			t.Fatalf("emission %d carried index %d", i, g)
		}
	}
}

// TestMapStreamEmitError: an error from the consumer aborts the stream
// and is returned as-is.
func TestMapStreamEmitError(t *testing.T) {
	e := New(2)
	stop := errors.New("stop")
	count := 0
	err := MapStream(context.Background(), e, 50, func(ctx context.Context, i int) (int, error) {
		return i, nil
	}, func(i, v int) error {
		count++
		if i == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
	if count != 4 {
		t.Fatalf("%d emissions, want 4 (0..3)", count)
	}
}

// TestMapStreamCancel: cancelling the context mid-stream stops emission
// promptly — no result is delivered after the cancellation, even ones
// already buffered — and MapStream returns the context's error.
func TestMapStreamCancel(t *testing.T) {
	e := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	var after atomic.Bool
	emitted := 0
	err := MapStream(ctx, e, 100, func(ctx context.Context, i int) (int, error) {
		return i, nil
	}, func(i, v int) error {
		if after.Load() {
			t.Error("emission after cancellation")
		}
		emitted++
		if emitted == 3 {
			cancel()
			after.Store(true)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted < 3 {
		t.Fatalf("%d emissions before cancel, want 3", emitted)
	}
}

// TestMapStreamNested: jobs may fan out through Map on the same engine
// without deadlocking (the caller-runs discipline extends to streams).
func TestMapStreamNested(t *testing.T) {
	e := New(2)
	err := MapStream(context.Background(), e, 8, func(ctx context.Context, i int) (int, error) {
		inner, err := Map(ctx, e, 4, func(ctx context.Context, j int) (int, error) {
			return j, nil
		})
		if err != nil {
			return 0, err
		}
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum, nil
	}, func(i, v int) error {
		if v != 6 {
			t.Errorf("job %d sum %d, want 6", i, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
