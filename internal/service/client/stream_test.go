package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// TestScenarioStreamDecodesPointFramesOnce: Next decodes each line once,
// a point frame straight into its point. Well-formed points, points that
// do not decode, other frames and lines that are not JSON each yield
// their point, the end of the stream or their error.
func TestScenarioStreamDecodesPointFramesOnce(t *testing.T) {
	good := `{"coords":[{"axis":"bandwidth","value":"125"}],"point_digest":"sha256:ab","flavors":[{"flavor":"base","trace_digest":"sha256:cd","finish_sec":0.5,"traffic":{"intra_bytes":1,"inter_bytes":2,"intra_msgs":3,"inter_msgs":4}}]}`
	var goodPt core.ScenarioPoint
	if err := json.Unmarshal([]byte(good), &goodPt); err != nil || len(goodPt.Flavors) != 1 {
		t.Fatalf("decode the point: %v", err)
	}
	const badFrame = "client: scenario stream: decode frame: "
	for i, c := range []struct {
		line string
		pt   *core.ScenarioPoint // the point Next returns, if any
		eof  bool
		err  string // the error's text, or its prefix when it ends in ": "
	}{
		{line: `{"point":` + good + `}`, pt: &goodPt},
		{line: `{ "point":` + good + `}`, pt: &goodPt},
		{line: `{"POINT":` + good + `}`, pt: &goodPt},
		{line: `{"point":{}} `, pt: &core.ScenarioPoint{}},
		{line: `{"point":{},"done":{"points":1}}`, pt: &core.ScenarioPoint{}},
		{line: `{"point":null}`, err: "client: scenario stream: empty frame"},
		{line: `{"point":{"coords":5}}`, err: badFrame},
		{line: `{"point":"text"}`, err: badFrame},
		{line: `{"point":garbage}`, err: badFrame},
		{line: `{"point":{}}}`, err: badFrame},
		{line: `not json`, err: badFrame},
		{line: `{"error":"boom"}`, err: "client: scenario stream: boom"},
		{line: `{}`, err: "client: scenario stream: empty frame"},
		{line: `{"done":{"points":1}}`, err: "client: scenario stream: done frame counts 1 points, received 0"},
		{line: `{"done":{"points":0}}`, eof: true},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", service.NDJSONContentType)
			io.WriteString(w, `{"header":{"app":"cg","spec_digest":"sha256:00","platform_digest":"sha256:11","output":"finish","axes":["bandwidth"],"grid_points":1}}`+"\n")
			io.WriteString(w, c.line+"\n")
		}))
		s, err := New(srv.URL, srv.Client()).ScenarioStream(context.Background(), service.ScenarioRequest{App: "cg", Ranks: 4})
		if err != nil {
			t.Fatalf("line %d: open: %v", i, err)
		}
		pt, err := s.Next()
		switch {
		case c.err != "":
			if err == nil || !(err.Error() == c.err || strings.HasSuffix(c.err, ": ") && strings.HasPrefix(err.Error(), c.err)) {
				t.Fatalf("line %d %q: error %v, want %s", i, c.line, err, c.err)
			}
		case c.eof:
			if err != io.EOF {
				t.Fatalf("line %d %q: %v, want io.EOF", i, c.line, err)
			}
		case err != nil:
			t.Fatalf("line %d %q: %v", i, c.line, err)
		case !reflect.DeepEqual(pt, *c.pt):
			t.Fatalf("line %d %q: point %+v, want %+v", i, c.line, pt, *c.pt)
		}
		s.Close()
		srv.Close()
	}
}

// TestScenarioStreamDecodesLongFrames: the line buffer starts at 4 KiB and
// grows, so a header and a point far longer than that still decode whole.
func TestScenarioStreamDecodesLongFrames(t *testing.T) {
	var want core.ScenarioPoint
	for i := 0; i < 3000; i++ {
		want.Coords = append(want.Coords, core.Coord{Axis: core.AxisBandwidth, Value: strings.Repeat("9", 20)})
	}
	point, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	axes := strings.Repeat(`"bandwidth",`, 1000)
	header := `{"header":{"app":"cg","spec_digest":"sha256:00","platform_digest":"sha256:11","output":"finish","axes":[` + axes[:len(axes)-1] + `],"grid_points":1}}`
	if len(point) < 64<<10 || len(header) < 8<<10 {
		t.Fatalf("frames of %d and %d bytes are too short to grow the buffer", len(point), len(header))
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", service.NDJSONContentType)
		io.WriteString(w, header+"\n")
		io.WriteString(w, `{"point":`+string(point)+"}\n")
		io.WriteString(w, `{"done":{"points":1}}`+"\n")
	}))
	defer srv.Close()
	s, err := New(srv.URL, srv.Client()).ScenarioStream(context.Background(), service.ScenarioRequest{App: "cg", Ranks: 4})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	if got := len(s.Header().Axes); got != 1000 {
		t.Fatalf("header lists %d axes, want 1000", got)
	}
	pt, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pt, want) {
		t.Fatalf("point has %d coords, want %d", len(pt.Coords), len(want.Coords))
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("after the point: %v, want io.EOF", err)
	}
}
