package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

func TestRetryPolicyWait(t *testing.T) {
	p := RetryPolicy{BaseWait: 10 * time.Millisecond, MaxWait: 80 * time.Millisecond}
	for attempt := 0; attempt < 8; attempt++ {
		ceil := 10 * time.Millisecond << attempt
		if ceil > p.MaxWait {
			ceil = p.MaxWait
		}
		for i := 0; i < 50; i++ {
			if w := p.wait(attempt, 0); w < 0 || w > ceil {
				t.Fatalf("attempt %d: wait %v outside [0, %v]", attempt, w, ceil)
			}
		}
	}
	// The server's Retry-After is a floor, even past the backoff ceiling.
	if w := p.wait(0, 200*time.Millisecond); w != 200*time.Millisecond {
		t.Fatalf("Retry-After floor ignored: %v", w)
	}
	// Zero values fall back to the defaults.
	var zero RetryPolicy
	if w := zero.wait(0, 0); w > DefaultRetryBaseWait {
		t.Fatalf("zero policy first wait %v exceeds the default base", w)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := map[string]time.Duration{
		"":        0,
		"1":       time.Second,
		"30":      30 * time.Second,
		"-5":      0,
		"soon":    0,
		"1.5":     0,
		"Wed, 21": 0, // HTTP-date form: the daemon never sends it
	}
	for h, want := range cases {
		if got := parseRetryAfter(h); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", h, got, want)
		}
	}
}

// flakyProxy fronts a real service handler, failing the first `fail`
// requests the way a restarting or draining daemon would, then serving
// normally — the client's retry loop must ride through it.
func flakyProxy(t *testing.T, fail int, mode string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	mgr, err := service.NewManager(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return flakyFront(t, service.NewHandler(mgr), func(n int64) string {
		if n <= int64(fail) {
			return mode
		}
		return ""
	})
}

// flakyFront serves real, except that request n (counting from 1) fails
// as mode(n) says: "drop" severs the connection, any other non-empty
// mode answers 503 with Retry-After 0.
func flakyFront(t *testing.T, real http.Handler, mode func(n int64) string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if m := mode(calls.Add(1)); m != "" {
			switch m {
			case "drop":
				// Simulate a daemon dying mid-request: sever the
				// connection so the client sees a transport error.
				hj, ok := w.(http.Hijacker)
				if !ok {
					t.Error("recorder not hijackable")
					return
				}
				conn, _, err := hj.Hijack()
				if err != nil {
					t.Error(err)
					return
				}
				conn.Close()
			default:
				w.Header().Set("Retry-After", "0")
				http.Error(w, "draining", http.StatusServiceUnavailable)
			}
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func fastRetry(n int) RetryPolicy {
	return RetryPolicy{Retries: n, BaseWait: time.Millisecond, MaxWait: 4 * time.Millisecond}
}

// TestClientRetriesThroughRestart: a POST that lands on a daemon twice
// answering 503 + Retry-After succeeds on the third attempt without the
// caller noticing, and the streaming path's opening POST retries the
// same way.
func TestClientRetriesThroughRestart(t *testing.T) {
	ctx := context.Background()
	req := service.ScenarioRequest{App: "cg", Ranks: 4, Output: "finish"}

	srv, calls := flakyProxy(t, 2, "503")
	c := New(srv.URL, srv.Client()).WithRetry(fastRetry(3))
	res, err := c.Scenario(ctx, req)
	if err != nil {
		t.Fatalf("batch through flaky daemon: %v", err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("batch result %+v", res)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("batch took %d attempts, want 3", got)
	}

	srv2, calls2 := flakyProxy(t, 2, "503")
	c2 := New(srv2.URL, srv2.Client()).WithRetry(fastRetry(3))
	st, err := c2.ScenarioStream(ctx, req)
	if err != nil {
		t.Fatalf("stream through flaky daemon: %v", err)
	}
	st.Close()
	if got := calls2.Load(); got != 3 {
		t.Fatalf("stream took %d attempts, want 3", got)
	}
}

// TestClientRetriesTransportError: severed connections (the daemon
// genuinely down between attempts) retry like retryable statuses.
func TestClientRetriesTransportError(t *testing.T) {
	srv, calls := flakyProxy(t, 1, "drop")
	c := New(srv.URL, srv.Client()).WithRetry(fastRetry(2))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("health through dropped connection: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("took %d attempts, want 2", got)
	}
}

// TestClientRetriesExhausted: a daemon that never recovers costs
// exactly Retries+1 attempts and surfaces the final status.
func TestClientRetriesExhausted(t *testing.T) {
	srv, calls := flakyProxy(t, 1<<30, "503")
	c := New(srv.URL, srv.Client()).WithRetry(fastRetry(2))
	_, err := c.Scenario(context.Background(), service.ScenarioRequest{App: "cg", Ranks: 4})
	if err == nil {
		t.Fatal("request against a dead daemon succeeded")
	}
	if !strings.Contains(err.Error(), "503") {
		t.Fatalf("error %v does not carry the final status", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3 (1 + 2 retries)", got)
	}
}

// TestClientRetryRespectsContext: cancellation beats the backoff sleep —
// no retry fires after the caller gives up.
func TestClientRetryRespectsContext(t *testing.T) {
	srv, calls := flakyProxy(t, 1<<30, "503")
	c := New(srv.URL, srv.Client()).WithRetry(RetryPolicy{Retries: 5, BaseWait: time.Hour, MaxWait: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Health(ctx)
	if err == nil {
		t.Fatal("cancelled request succeeded")
	}
	if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "503") {
		t.Fatalf("unexpected error: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d attempts before cancellation, want 1", got)
	}
}

// TestRetryAfterIsFloor: with a zero-jitter window the sleep is exactly
// the server's Retry-After — observable as elapsed wall time.
func TestRetryAfterIsFloor(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()
	c := New(srv.URL, srv.Client()).WithRetry(RetryPolicy{Retries: 1, BaseWait: time.Nanosecond, MaxWait: time.Nanosecond})
	start := time.Now()
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retry fired after %v, before the server's Retry-After of 1s", elapsed)
	}
}
