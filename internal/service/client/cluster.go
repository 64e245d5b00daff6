package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/cluster"
)

// ClusterTransport carries cluster RPCs over the daemons' HTTP API —
// the production counterpart of the in-process transport cluster tests
// use. Peer addresses are daemon base URLs ("http://host:port"); each
// call POSTs the encoded envelope to /v1/cluster/rpc.
//
// Retries reuse the client's RetryPolicy discipline: transport errors
// and backpressure statuses (429/502/503) back off with full jitter.
// Application-level refusals (a draining peer, a missing key) arrive
// inside a 200 response's envelope and are never retried — the cluster
// layer's own fallbacks handle those.
type ClusterTransport struct {
	// HC is the underlying HTTP client; nil selects http.DefaultClient.
	HC *http.Client
	// Retry controls transparent retries; the zero value means one
	// attempt.
	Retry RetryPolicy
}

// Call implements cluster.Transport.
func (t *ClusterTransport) Call(ctx context.Context, addr string, req *cluster.Request) (*cluster.Response, error) {
	body, err := req.Encode()
	if err != nil {
		return nil, err
	}
	hc := t.HC
	if hc == nil {
		hc = http.DefaultClient
	}
	url := strings.TrimRight(addr, "/") + cluster.RPCPath
	for attempt := 0; ; attempt++ {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hresp, err := hc.Do(hreq)
		if err != nil {
			if attempt >= t.Retry.Retries || ctx.Err() != nil {
				return nil, err
			}
			if sleepCtx(ctx, t.Retry.wait(attempt, 0)) != nil {
				return nil, err
			}
			continue
		}
		// One byte past the bound, so an oversized reply fails
		// DecodeResponse's wire-bound check instead of parsing cut short.
		payload, rerr := io.ReadAll(io.LimitReader(hresp.Body, cluster.MaxResponseBytes+1))
		hresp.Body.Close()
		switch {
		case rerr != nil:
			err = rerr
		case hresp.StatusCode == http.StatusOK:
			return cluster.DecodeResponse(payload)
		default:
			err = fmt.Errorf("client: cluster rpc %s: status %d: %s", url, hresp.StatusCode, strings.TrimSpace(string(payload)))
			if !retryableStatus(hresp.StatusCode) {
				return nil, err
			}
		}
		if attempt >= t.Retry.Retries || ctx.Err() != nil {
			return nil, err
		}
		if sleepCtx(ctx, t.Retry.wait(attempt, parseRetryAfter(hresp.Header.Get("Retry-After")))) != nil {
			return nil, err
		}
	}
}

// ClusterStatus fetches GET /v1/cluster/status — the node's identity,
// peers, and stored-key accounting. Fails with the daemon's 404 error
// when it is not a cluster member.
func (c *Client) ClusterStatus(ctx context.Context) (cluster.Status, error) {
	var st cluster.Status
	err := c.do(ctx, http.MethodGet, "/v1/cluster/status", nil, "", &st)
	return st, err
}
