package client

import (
	"context"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// Retry defaults. BaseWait seeds the exponential backoff and MaxWait
// caps a single sleep; both are per-attempt, the whole retry budget is
// additionally bounded by the request context.
const (
	DefaultRetryBaseWait = 100 * time.Millisecond
	DefaultRetryMaxWait  = 2 * time.Second
)

// RetryPolicy controls the client's transparent retries. Every request
// the daemon answers is keyed by content digest and served through the
// result cache and singleflight table, so replaying a POST is safe: a
// retry either attaches to the surviving computation or hits the cache.
// Retries fire on transport errors (connection refused while the daemon
// restarts, reset mid-flight) and on 429 Too Many Requests, 502 Bad
// Gateway, and 503 Service Unavailable — the backpressure and drain
// signals — waiting between attempts with exponential backoff and full
// jitter, never less than the server's Retry-After. The zero value
// disables retries (one attempt).
type RetryPolicy struct {
	// Retries is how many times a failed request is reissued; 0 means a
	// single attempt.
	Retries int
	// BaseWait seeds the backoff (DefaultRetryBaseWait when 0). Attempt
	// n sleeps a uniformly random duration in [0, min(BaseWait·2ⁿ,
	// MaxWait)] — full jitter, so a herd of clients retrying against one
	// restarted daemon spreads out instead of stampeding.
	BaseWait time.Duration
	// MaxWait caps one backoff sleep (DefaultRetryMaxWait when 0).
	MaxWait time.Duration
}

// maxErrorBody bounds how much of a refused answer's body goes into its
// error: the daemon's error envelope is one short line.
const maxErrorBody = 64 << 10

// send is the package's one retry loop. It sends the request newReq
// builds, a fresh one per attempt so a []byte body replays the same
// bytes, until an attempt is final. An answer with status want (any 2xx
// when want is 0) goes to read, which owns its body. Transport errors,
// read's errors and 429/502/503 answers retry per p; refuse turns any
// other answer, or the last retryable one, into the error, given the
// start of its body.
func (p RetryPolicy) send(ctx context.Context, hc *http.Client, newReq func() (*http.Request, error), want int,
	read func(*http.Response) error, refuse func(code int, body []byte) error) error {
	for attempt := 0; ; attempt++ {
		req, err := newReq()
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		var retryAfter time.Duration
		switch {
		case err != nil:
		case resp.StatusCode == want || want == 0 && resp.StatusCode/100 == 2:
			if err = read(resp); err == nil {
				return nil
			}
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
			resp.Body.Close()
			if err = refuse(resp.StatusCode, body); !retryableStatus(resp.StatusCode) {
				return err
			}
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		}
		if attempt >= p.Retries || ctx.Err() != nil || sleepCtx(ctx, p.wait(attempt, retryAfter)) != nil {
			return err
		}
	}
}

// wait picks the sleep before retry attempt (attempt counts from 0) —
// full jitter over the exponential ceiling, floored at the server's
// Retry-After when one arrived.
func (p RetryPolicy) wait(attempt int, retryAfter time.Duration) time.Duration {
	base := p.BaseWait
	if base <= 0 {
		base = DefaultRetryBaseWait
	}
	maxw := p.MaxWait
	if maxw <= 0 {
		maxw = DefaultRetryMaxWait
	}
	ceil := base
	for i := 0; i < attempt && ceil < maxw; i++ {
		ceil *= 2
	}
	if ceil > maxw {
		ceil = maxw
	}
	w := time.Duration(rand.Int64N(int64(ceil) + 1))
	if w < retryAfter {
		w = retryAfter
	}
	return w
}

// retryableStatus reports whether the status is a back-off-and-retry
// signal rather than a real answer.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// parseRetryAfter decodes a Retry-After header's delay-seconds form
// (the only form the daemon emits); 0 when absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleepCtx sleeps d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
