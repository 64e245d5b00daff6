package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/service"
)

// ScenarioStream is a pull iterator over a streaming scenario response
// (POST /v1/scenarios with Accept: application/x-ndjson). Points arrive
// in the same deterministic order the batch result lists them, each one
// as soon as the daemon finishes it. Not safe for concurrent use; Close
// when done (early Close abandons — and thereby cancels — the run on
// the daemon if no other client shares it).
type ScenarioStream struct {
	body   io.ReadCloser
	sc     *bufio.Scanner
	header core.ScenarioHeader
	points int
	done   bool
	err    error
}

// Scenario opens a streaming scenario run. The returned stream has
// already consumed the header frame, so Header is immediately valid;
// call Next until io.EOF for the points. The opening POST retries per
// the client's RetryPolicy (a mid-stream failure does not: replaying
// frames already delivered is the caller's call to make).
func (c *Client) ScenarioStream(ctx context.Context, req service.ScenarioRequest) (*ScenarioStream, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp *http.Response
	err = c.retry.send(ctx, c.hc, func() (*http.Request, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/scenarios", bytes.NewReader(body))
		if err == nil {
			hreq.Header.Set("Content-Type", "application/json")
			hreq.Header.Set("Accept", service.NDJSONContentType)
		}
		return hreq, err
	}, http.StatusOK, func(r *http.Response) error {
		resp = r
		return nil
	}, func(code int, payload []byte) error {
		return statusError(http.MethodPost, "/v1/scenarios", code, payload)
	})
	if err != nil {
		return nil, err
	}
	s := &ScenarioStream{body: resp.Body, sc: bufio.NewScanner(resp.Body)}
	s.sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	frame, err := s.frame()
	if err != nil {
		s.Close()
		return nil, err
	}
	if frame.Header == nil {
		s.Close()
		return nil, fmt.Errorf("client: scenario stream: first frame is not a header")
	}
	if err := json.Unmarshal(frame.Header, &s.header); err != nil {
		s.Close()
		return nil, fmt.Errorf("client: scenario stream: decode header: %w", err)
	}
	return s, nil
}

// Header returns the stream's scenario header (spec digest, axes, grid
// size) — available before any point has arrived.
func (s *ScenarioStream) Header() core.ScenarioHeader { return s.header }

// streamFrame is one NDJSON line as the client decodes it: a point frame
// decodes straight into its point, so each point is decoded once.
type streamFrame struct {
	Header json.RawMessage     `json:"header"`
	Point  *core.ScenarioPoint `json:"point"`
	Done   *service.StreamDone `json:"done"`
	Error  string              `json:"error"`
}

// frame reads and decodes one NDJSON line.
func (s *ScenarioStream) frame() (streamFrame, error) {
	var f streamFrame
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return f, err
		}
		return f, io.ErrUnexpectedEOF
	}
	if err := json.Unmarshal(s.sc.Bytes(), &f); err != nil {
		return f, fmt.Errorf("client: scenario stream: decode frame: %w", err)
	}
	return f, nil
}

// Next returns the next grid point. io.EOF signals a complete stream
// (the done frame arrived and its count matched); any other error means
// the stream failed or was truncated.
func (s *ScenarioStream) Next() (core.ScenarioPoint, error) {
	var pt core.ScenarioPoint
	if s.done || s.err != nil {
		if s.err != nil {
			return pt, s.err
		}
		return pt, io.EOF
	}
	frame, err := s.frame()
	if err != nil {
		s.err = err
		return pt, err
	}
	switch {
	case frame.Point != nil:
		s.points++
		return *frame.Point, nil
	case frame.Done != nil:
		s.done = true
		if frame.Done.Points != s.points {
			s.err = fmt.Errorf("client: scenario stream: done frame counts %d points, received %d", frame.Done.Points, s.points)
			return pt, s.err
		}
		return pt, io.EOF
	case frame.Error != "":
		s.err = fmt.Errorf("client: scenario stream: %s", frame.Error)
		return pt, s.err
	default:
		s.err = fmt.Errorf("client: scenario stream: empty frame")
		return pt, s.err
	}
}

// Close releases the stream's connection. Safe to call at any time,
// including after io.EOF.
func (s *ScenarioStream) Close() error { return s.body.Close() }
