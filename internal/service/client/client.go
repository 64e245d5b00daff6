// Package client is the thin Go client of the simd HTTP API: tests,
// examples, and the load-generator benchmark all speak to the daemon
// through it, so request/response handling lives in exactly one place.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Client talks to one simd daemon. The zero value is not usable; create
// one with New.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// New returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8080"). httpClient nil selects http.DefaultClient.
// The client does not retry; see WithRetry.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// WithRetry returns a copy of the client that retries per p (see
// RetryPolicy for what retries and how the waits are chosen).
func (c *Client) WithRetry(p RetryPolicy) *Client {
	cp := *c
	cp.retry = p
	return &cp
}

// apiError is the daemon's JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// do issues one request — retrying transport errors and backpressure
// statuses per the client's RetryPolicy — and decodes the response into
// out (skipped when out is nil). Non-2xx responses become errors
// carrying the server's message.
func (c *Client) do(ctx context.Context, method, path string, body []byte, contentType string, out any) error {
	var payload []byte
	err := c.retry.send(ctx, c.hc, func() (*http.Request, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err == nil && contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		return req, err
	}, 0, func(resp *http.Response) (err error) {
		payload, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		return err
	}, func(code int, body []byte) error {
		return statusError(method, path, code, body)
	})
	if err != nil || out == nil {
		return err
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = payload
		return nil
	}
	if err := json.Unmarshal(payload, out); err != nil {
		return fmt.Errorf("client: %s %s: decode response: %w", method, path, err)
	}
	return nil
}

// statusError turns a non-2xx reply into the client's error, carrying
// the server's JSON error message when one was sent.
func statusError(method, path string, code int, payload []byte) error {
	var ae apiError
	if json.Unmarshal(payload, &ae) == nil && ae.Error != "" {
		return fmt.Errorf("client: %s %s: %s (HTTP %d)", method, path, ae.Error, code)
	}
	return fmt.Errorf("client: %s %s: HTTP %d", method, path, code)
}

func (c *Client) postJSON(ctx context.Context, path string, req any, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, body, "application/json", out)
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) (service.Health, error) {
	var h service.Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, "", &h)
	return h, err
}

// Apps lists the application catalog.
func (c *Client) Apps(ctx context.Context) ([]service.AppInfo, error) {
	var list []service.AppInfo
	err := c.do(ctx, http.MethodGet, "/v1/apps", nil, "", &list)
	return list, err
}

// Platforms lists the platform preset catalog.
func (c *Client) Platforms(ctx context.Context) ([]service.PlatformInfo, error) {
	var list []service.PlatformInfo
	err := c.do(ctx, http.MethodGet, "/v1/platforms", nil, "", &list)
	return list, err
}

// MetricsText fetches the raw Prometheus text-format /metrics body.
func (c *Client) MetricsText(ctx context.Context) ([]byte, error) {
	var raw []byte
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, "", &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Metrics fetches /metrics and parses it into sample values keyed by
// canonical sample name (`name` or `name{k="v",...}`).
func (c *Client) Metrics(ctx context.Context) (telemetry.ParsedMetrics, error) {
	raw, err := c.MetricsText(ctx)
	if err != nil {
		return nil, err
	}
	return telemetry.ParseMetrics(bytes.NewReader(raw))
}

// Telemetry fetches the daemon's full instrument snapshot
// (GET /v1/debug/telemetry).
func (c *Client) Telemetry(ctx context.Context) (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	err := c.do(ctx, http.MethodGet, "/v1/debug/telemetry", nil, "", &snap)
	return snap, err
}

// UploadTrace stores a trace in the daemon's content-addressed store and
// returns its digest and summary.
func (c *Client) UploadTrace(ctx context.Context, t *trace.Trace) (service.TraceInfo, error) {
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, t); err != nil {
		return service.TraceInfo{}, err
	}
	var info service.TraceInfo
	err := c.do(ctx, http.MethodPost, "/v1/traces", buf.Bytes(), "application/octet-stream", &info)
	return info, err
}

// DownloadTrace fetches a stored trace by digest.
func (c *Client) DownloadTrace(ctx context.Context, digest string) (*trace.Trace, error) {
	var raw []byte
	if err := c.do(ctx, http.MethodGet, "/v1/traces/"+digest, nil, "", &raw); err != nil {
		return nil, err
	}
	return trace.ReadBinary(bytes.NewReader(raw))
}

// DeleteTrace removes a stored trace (and its compiled programs) from
// the daemon.
func (c *Client) DeleteTrace(ctx context.Context, digest string) error {
	return c.do(ctx, http.MethodDelete, "/v1/traces/"+digest, nil, "", nil)
}

// Scenario runs a synchronous declarative study.
func (c *Client) Scenario(ctx context.Context, req service.ScenarioRequest) (*core.ScenarioResult, error) {
	var res core.ScenarioResult
	if err := c.postJSON(ctx, "/v1/scenarios", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// ScenarioRaw runs a synchronous declarative study and returns the exact
// response bytes — the form the byte-identical cache guarantee is stated
// in.
func (c *Client) ScenarioRaw(ctx context.Context, req service.ScenarioRequest) ([]byte, error) {
	var raw []byte
	if err := c.postJSON(ctx, "/v1/scenarios", req, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Analyze runs a synchronous analysis.
func (c *Client) Analyze(ctx context.Context, req service.AnalyzeRequest) (*core.WireReport, error) {
	var rep core.WireReport
	if err := c.postJSON(ctx, "/v1/analyze", req, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// AnalyzeRaw runs a synchronous analysis and returns the exact response
// bytes — the form the byte-identical cache guarantee is stated in.
func (c *Client) AnalyzeRaw(ctx context.Context, req service.AnalyzeRequest) ([]byte, error) {
	var raw []byte
	if err := c.postJSON(ctx, "/v1/analyze", req, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// WhatIf runs a synchronous what-if ranking.
func (c *Client) WhatIf(ctx context.Context, req service.WhatIfRequest) (*core.WireWhatIf, error) {
	var rep core.WireWhatIf
	if err := c.postJSON(ctx, "/v1/whatif", req, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// SweepBandwidth runs a synchronous bandwidth sweep.
func (c *Client) SweepBandwidth(ctx context.Context, req service.BandwidthSweepRequest) (*core.WireBandwidthSweep, error) {
	var rep core.WireBandwidthSweep
	if err := c.postJSON(ctx, "/v1/sweep/bandwidth", req, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// SweepMapping runs a synchronous mapping sweep.
func (c *Client) SweepMapping(ctx context.Context, req service.MappingSweepRequest) (*core.WireMappingSweep, error) {
	var rep core.WireMappingSweep
	if err := c.postJSON(ctx, "/v1/sweep/mapping", req, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// submitAsync posts a request with ?async=1 and returns the job handle.
func (c *Client) submitAsync(ctx context.Context, path string, req any) (service.Status, error) {
	var st service.Status
	err := c.postJSON(ctx, path+"?async=1", req, &st)
	return st, err
}

// AnalyzeAsync submits an analysis and returns immediately with the job.
func (c *Client) AnalyzeAsync(ctx context.Context, req service.AnalyzeRequest) (service.Status, error) {
	return c.submitAsync(ctx, "/v1/analyze", req)
}

// Job polls one job; terminal Done jobs carry the result inline.
func (c *Client) Job(ctx context.Context, id string) (service.Status, error) {
	var st service.Status
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, "", &st)
	return st, err
}

// Jobs lists the daemon's retained jobs.
func (c *Client) Jobs(ctx context.Context) ([]service.Status, error) {
	var list []service.Status
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, "", &list)
	return list, err
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, "", nil)
}
