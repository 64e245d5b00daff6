// Internal tests of the body memo and of frame-shaped cache entries:
// a repeated body is served from the memo and the result cache with the
// bytes and headers a fresh manager serves, while bodies whose
// resolution reads the store never enter the memo.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/tracer"
)

// memoServer is a manager behind an httptest server.
type memoServer struct {
	m   *Manager
	url string
}

func newMemoServer(t *testing.T, eng *engine.Engine) memoServer {
	t.Helper()
	m, err := NewManager(Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return memoServer{m: m, url: srv.URL}
}

// memoReply is one response: status, body and headers.
type memoReply struct {
	status int
	body   []byte
	header http.Header
	chunks []string // transfer encodings
}

// post sends a raw body, asking for NDJSON when ndjson is set.
func (s memoServer) post(t *testing.T, path string, body []byte, ndjson bool) memoReply {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if ndjson {
		req.Header.Set("Accept", NDJSONContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return memoReply{status: resp.StatusCode, body: b, header: resp.Header, chunks: resp.TransferEncoding}
}

// memoHits reads the memo's lifetime hits.
func (s memoServer) memoHits() uint64 {
	h, _ := s.m.memo.Counters()
	return h
}

// memoBody is one drawn request: its route, whether it streams, its raw
// body, and whether its resolution reads the store (a trace or platform
// digest), which keeps it out of the memo.
type memoBody struct {
	path   string
	ndjson bool
	body   []byte
	stored bool
}

// memoFixture is what the drawn bodies may name: a trace and a platform
// every manager of the test stores.
type memoFixture struct {
	traceDigest, platDigest string
	trace                   *tracer.Run
	plat                    network.Platform
}

func newMemoFixture(t *testing.T) memoFixture {
	t.Helper()
	entry, _ := apps.ByName("cg", 4)
	run, err := tracer.Trace("cg", 4, tracer.DefaultConfig(), entry.App.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := network.PlatformPreset("marenostrum-4x", 4)
	if err != nil {
		t.Fatal(err)
	}
	f := memoFixture{trace: run, plat: plat.WithInterBandwidth(777)}
	if f.platDigest, err = f.plat.Digest(); err != nil {
		t.Fatal(err)
	}
	return f
}

// stock stores the fixture's trace and platform in a manager's store.
func (f *memoFixture) stock(t *testing.T, m *Manager) {
	t.Helper()
	d, err := m.store.PutTrace(f.trace.BaseTrace())
	if err != nil {
		t.Fatal(err)
	}
	f.traceDigest = d
	if _, err := m.store.PutPlatform(f.plat); err != nil {
		t.Fatal(err)
	}
}

// drawMemoBodies draws n request bodies from r over the five POST routes
// (/v1/scenarios batch and NDJSON), with no, preset, inline and digest
// platforms, in app mode and (scenarios, bandwidth sweeps) trace mode.
// Some bodies are indented or end in whitespace: the memo keys raw
// bytes, and such a body is one more spelling of its task.
func drawMemoBodies(t *testing.T, r *rand.Rand, f memoFixture, n int) []memoBody {
	t.Helper()
	appNames := []string{"cg", "pop", "sweep3d", "alya", "bt"}
	presets := network.PresetNames()
	bws := []float64{125, 250, 500, 1000, 2000}
	pickBW := func(k int) []float64 {
		out := make([]float64, 0, k)
		for _, i := range r.Perm(len(bws))[:k] {
			out = append(out, bws[i])
		}
		return out
	}
	out := make([]memoBody, 0, n)
	for len(out) < n {
		var b memoBody
		platform := func(ranks int) *PlatformSpec {
			switch r.IntN(4) {
			case 1:
				return &PlatformSpec{Preset: presets[r.IntN(len(presets))]}
			case 2:
				p, err := network.PlatformPreset(presets[r.IntN(len(presets))], ranks)
				if err != nil {
					t.Fatal(err)
				}
				var doc bytes.Buffer
				if err := p.WithInterBandwidth(bws[r.IntN(len(bws))]).WriteJSON(&doc); err != nil {
					t.Fatal(err)
				}
				return &PlatformSpec{Inline: doc.Bytes()}
			case 3:
				b.stored = true
				return &PlatformSpec{Digest: f.platDigest}
			}
			return nil
		}
		app, ranks := appNames[r.IntN(len(appNames))], 4
		traceMode := r.IntN(4) == 0
		var req any
		switch route := r.IntN(6); route {
		case 0, 1:
			b.path, b.ndjson = "/v1/scenarios", route == 1
			sr := ScenarioRequest{
				Platform: platform(ranks),
				Axes:     []core.Axis{core.BandwidthAxis(pickBW(1 + r.IntN(2))...)},
				Output:   []string{"", "traffic", "report", "whatif"}[r.IntN(4)],
			}
			if r.IntN(2) == 0 {
				sr.Axes = append(sr.Axes, core.MappingAxis("block", "rr"))
			}
			if traceMode {
				sr.Trace, sr.Output = f.traceDigest, []string{"", "traffic"}[r.IntN(2)]
				b.stored = true
			} else {
				sr.App, sr.Ranks = app, ranks
			}
			req = sr
		case 2:
			b.path = "/v1/analyze"
			req = AnalyzeRequest{App: app, Ranks: ranks, Chunks: r.IntN(3) * 4, Platform: platform(ranks)}
		case 3:
			b.path = "/v1/whatif"
			req = WhatIfRequest{App: app, Ranks: ranks, Platform: platform(ranks)}
		case 4:
			b.path = "/v1/sweep/bandwidth"
			sw := BandwidthSweepRequest{Platform: platform(ranks), Bandwidths: pickBW(1 + r.IntN(3))}
			if traceMode {
				sw.Trace = f.traceDigest
				b.stored = true
			} else {
				sw.App, sw.Ranks = app, ranks
				sw.Flavor = []string{"", "base", "overlap-ideal"}[r.IntN(3)]
			}
			req = sw
		default:
			b.path = "/v1/sweep/mapping"
			req = MappingSweepRequest{App: app, Ranks: ranks, Platform: platform(ranks), Mappings: []string{"block", "rr"}}
		}
		var err error
		if r.IntN(4) == 0 {
			b.body, err = json.MarshalIndent(req, "", "  ")
		} else {
			b.body, err = json.Marshal(req)
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.IntN(4) == 0 {
			b.body = append(b.body, " \n\t"[:1+r.IntN(3)]...)
		}
		out = append(out, b)
	}
	return out
}

// sameHeaders compares the response headers a rerun must keep: all but
// the job's ID, the cache verdict and the date, plus the framing.
func sameHeaders(a, b memoReply) error {
	strip := func(h http.Header) http.Header {
		h = h.Clone()
		for _, k := range []string{"X-Job-Id", "X-Cache", "X-Request-Id", "Date"} {
			h.Del(k)
		}
		return h
	}
	ha, hb := strip(a.header), strip(b.header)
	if fmt.Sprint(ha) != fmt.Sprint(hb) || fmt.Sprint(a.chunks) != fmt.Sprint(b.chunks) {
		return fmt.Errorf("headers %v %v, want %v %v", hb, b.chunks, ha, a.chunks)
	}
	return nil
}

// TestMemoHitsByteIdentical draws bodies from a seed over the five POST
// routes, batch and NDJSON, and sends each twice to one manager and
// once to a manager that has seen nothing. The second reply is a cache
// hit that starts no engine job, and its bytes and headers equal the
// first's and the fresh manager's. A body that names neither a trace
// nor a platform digest is served from the memo; one that does never
// enters it. Failures name the seed.
func TestMemoHitsByteIdentical(t *testing.T) {
	const bodies = 20
	seen := map[string]bool{} // what the draws covered, across seeds
	for seed := uint64(1); seed <= 3; seed++ {
		fix := newMemoFixture(t)
		a := newMemoServer(t, engine.New(2))
		fix.stock(t, a.m)
		freshEng := engine.New(2)
		r := rand.New(rand.NewPCG(seed, 32))
		for i, b := range drawMemoBodies(t, r, fix, bodies) {
			label := fmt.Sprintf("seed %d body %d (%s ndjson=%v): %s", seed, i, b.path, b.ndjson, b.body)
			seen[fmt.Sprintf("%s ndjson=%v", b.path, b.ndjson)] = true
			seen[fmt.Sprintf("stored=%v", b.stored)] = true
			first := a.post(t, b.path, b.body, b.ndjson)
			if first.status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", label, first.status, first.body)
			}
			memoized := a.m.memo.Contains(memoKey("POST "+b.path, b.body))
			if memoized == b.stored {
				t.Fatalf("%s: in the memo: %v, names a stored artifact: %v", label, memoized, b.stored)
			}
			started, hits := a.m.eng.Stats().Started, a.memoHits()
			second := a.post(t, b.path, b.body, b.ndjson)
			switch {
			case second.status != http.StatusOK:
				t.Fatalf("%s: rerun status %d: %s", label, second.status, second.body)
			case !bytes.Equal(first.body, second.body):
				t.Fatalf("%s: rerun differs:\n%s\n%s", label, first.body, second.body)
			case second.header.Get("X-Cache") != "hit":
				t.Fatalf("%s: rerun X-Cache %q, want hit", label, second.header.Get("X-Cache"))
			case a.m.eng.Stats().Started != started:
				t.Fatalf("%s: rerun started %d engine jobs", label, a.m.eng.Stats().Started-started)
			case (a.memoHits() != hits) == b.stored:
				t.Fatalf("%s: memo hits moved by %d", label, a.memoHits()-hits)
			}
			if err := sameHeaders(first, second); err != nil {
				t.Fatalf("%s: rerun %v", label, err)
			}
			fresh := newMemoServer(t, freshEng)
			fix.stock(t, fresh.m)
			other := fresh.post(t, b.path, b.body, b.ndjson)
			if other.status != http.StatusOK || !bytes.Equal(first.body, other.body) {
				t.Fatalf("%s: a fresh manager answers %d:\n%s\nwant\n%s", label, other.status, other.body, first.body)
			}
			if err := sameHeaders(first, other); err != nil {
				t.Fatalf("%s: fresh manager %v", label, err)
			}
		}
	}
	if len(seen) != 8 {
		t.Fatalf("the draws covered only %v of six routes and both memo verdicts", seen)
	}
}

// TestMemoDeletedTraceBodyFails: a trace-mode body never enters the
// memo, so once its trace is deleted the same body answers 400 again,
// on the scenario route and the bandwidth sweep alike.
func TestMemoDeletedTraceBodyFails(t *testing.T) {
	fix := newMemoFixture(t)
	s := newMemoServer(t, engine.New(2))
	fix.stock(t, s.m)
	bodies := map[string]string{
		"/v1/scenarios":       fmt.Sprintf(`{"trace":%q,"axes":[{"kind":"bandwidth","values":[125,500]}]}`, fix.traceDigest),
		"/v1/sweep/bandwidth": fmt.Sprintf(`{"trace":%q,"bandwidths_mbps":[250]}`, fix.traceDigest),
	}
	for path, body := range bodies {
		for range 2 {
			if rep := s.post(t, path, []byte(body), false); rep.status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, rep.status, rep.body)
			}
		}
	}
	req, err := http.NewRequest(http.MethodDelete, s.url+"/v1/traces/"+fix.traceDigest, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	for path, body := range bodies {
		for _, ndjson := range []bool{false, path == "/v1/scenarios"} {
			rep := s.post(t, path, []byte(body), ndjson)
			if rep.status != http.StatusBadRequest || !strings.Contains(string(rep.body), "unknown trace") {
				t.Fatalf("%s (ndjson=%v) after the delete: status %d: %s", path, ndjson, rep.status, rep.body)
			}
		}
	}
	if n := s.m.memo.Len(); n != 0 {
		t.Fatalf("trace-mode bodies left %d memo entries", n)
	}
}

// TestMemoHitWhileDraining: a draining manager still serves a memoized
// body from its cache, batch and NDJSON, while new work is refused.
func TestMemoHitWhileDraining(t *testing.T) {
	s := newMemoServer(t, engine.New(2))
	body := []byte(`{"app":"cg","ranks":4,"axes":[{"kind":"bandwidth","values":[125,250]}]}`)
	first := s.post(t, "/v1/scenarios", body, false)
	stream := s.post(t, "/v1/scenarios", body, true)
	if first.status != http.StatusOK || stream.status != http.StatusOK {
		t.Fatalf("status %d / %d", first.status, stream.status)
	}
	if _, err := s.m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	hits := s.memoHits()
	for _, ndjson := range []bool{false, true} {
		want := first
		if ndjson {
			want = stream
		}
		rep := s.post(t, "/v1/scenarios", body, ndjson)
		if rep.status != http.StatusOK || !bytes.Equal(rep.body, want.body) || rep.header.Get("X-Cache") != "hit" {
			t.Fatalf("ndjson=%v while draining: status %d, X-Cache %q:\n%s", ndjson, rep.status, rep.header.Get("X-Cache"), rep.body)
		}
	}
	if n := s.memoHits() - hits; n != 2 {
		t.Fatalf("memo hits moved by %d while draining, want 2", n)
	}
	other := s.post(t, "/v1/scenarios", []byte(`{"app":"cg","ranks":8}`), false)
	if other.status != http.StatusServiceUnavailable {
		t.Fatalf("new work while draining: status %d, want 503", other.status)
	}
}

// TestMemoHitReregistersEvictedPlatform: a memoized body whose platform
// has left the store takes the full path, which registers the platform
// again, and is still answered from the result cache.
func TestMemoHitReregistersEvictedPlatform(t *testing.T) {
	s := newMemoServer(t, engine.New(2))
	body := []byte(`{"app":"cg","ranks":4,"platform":{"preset":"marenostrum-4x"}}`)
	first := s.post(t, "/v1/analyze", body, false)
	if first.status != http.StatusOK {
		t.Fatalf("status %d: %s", first.status, first.body)
	}
	e, ok := s.m.memo.Get(memoKey("POST /v1/analyze", body))
	if !ok {
		t.Fatal("the body did not enter the memo")
	}
	// The memo's entry names the platform the reply reports.
	var rep core.WireReport
	if err := json.Unmarshal(first.body, &rep); err != nil {
		t.Fatal(err)
	}
	if e.platform != rep.PlatformDigest {
		t.Fatalf("memo names platform %s, the reply %s", e.platform, rep.PlatformDigest)
	}
	if !s.m.store.platforms.Delete(e.platform) {
		t.Fatal("the platform was not in the store")
	}
	misses := func() uint64 { _, m := s.m.cache.Counters(); return m }
	started, misses0 := s.m.eng.Stats().Started, misses()
	second := s.post(t, "/v1/analyze", body, false)
	switch {
	case second.status != http.StatusOK || !bytes.Equal(first.body, second.body):
		t.Fatalf("rerun: status %d:\n%s\nwant\n%s", second.status, second.body, first.body)
	case second.header.Get("X-Cache") != "hit" || s.m.eng.Stats().Started != started:
		t.Fatalf("rerun: X-Cache %q, %d engine jobs", second.header.Get("X-Cache"), s.m.eng.Stats().Started-started)
	case misses() != misses0:
		t.Fatalf("rerun counted %d result-cache misses", misses()-misses0)
	}
	if _, err := s.m.store.GetPlatform(e.platform); err != nil {
		t.Fatalf("the full path did not register the platform again: %v", err)
	}
}

// TestMappingSweepResolvesPlatformOnce: a fresh mapping sweep on an
// inline platform resolves it once — translate expands the mappings
// against it and spec takes it as is — so the store's platform tier sees
// one lookup, and the body's memo entry names the platform the reply
// reports.
func TestMappingSweepResolvesPlatformOnce(t *testing.T) {
	s := newMemoServer(t, engine.New(1))
	plat, err := network.PlatformPreset("marenostrum-4x", 8)
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := plat.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(MappingSweepRequest{App: "cg", Ranks: 8, Platform: &PlatformSpec{Inline: doc.Bytes()}})
	if err != nil {
		t.Fatal(err)
	}
	lookups := func() uint64 { h, m := s.m.store.platforms.Counters(); return h + m }
	before := lookups()
	r := s.post(t, "/v1/sweep/mapping", body, false)
	if r.status != http.StatusOK {
		t.Fatalf("status %d: %s", r.status, r.body)
	}
	if n := lookups() - before; n != 1 {
		t.Fatalf("a fresh mapping sweep made %d lookups in the platform tier, want 1", n)
	}
	var sweep core.WireMappingSweep
	if err := json.Unmarshal(r.body, &sweep); err != nil {
		t.Fatal(err)
	}
	if e, ok := s.m.memo.Get(memoKey("POST /v1/sweep/mapping", body)); !ok || e.platform != sweep.PlatformDigest {
		t.Fatalf("memo entry %+v (present: %v) does not name the reply's platform %s", e, ok, sweep.PlatformDigest)
	}
}

// TestTrailingDataRejected: a body is exactly one JSON value. Another
// value or garbage after it is a 400 on the scenario route, batch and
// NDJSON, and on a per-kind route, and an error in a scenario file and a
// cluster exec payload; whitespace after it is not.
func TestTrailingDataRejected(t *testing.T) {
	s := newMemoServer(t, engine.New(2))
	for _, c := range []struct {
		path   string
		ndjson bool
	}{{"/v1/scenarios", false}, {"/v1/scenarios", true}, {"/v1/analyze", false}} {
		for _, tail := range []string{` {"app":"bt"}`, ` garbage`, `}`, `]`, `{}`} {
			body := `{"app":"cg","ranks":4}` + tail
			rep := s.post(t, c.path, []byte(body), c.ndjson)
			if rep.status != http.StatusBadRequest || !strings.Contains(string(rep.body), "after top-level value") {
				t.Fatalf("%s (ndjson=%v) %q: status %d: %s", c.path, c.ndjson, body, rep.status, rep.body)
			}
		}
		if rep := s.post(t, c.path, []byte("{\"app\":\"cg\",\"ranks\":4} \r\n\t\n"), c.ndjson); rep.status != http.StatusOK {
			t.Fatalf("%s (ndjson=%v) with trailing whitespace: status %d: %s", c.path, c.ndjson, rep.status, rep.body)
		}
	}
	if _, err := decodeExec([]byte(`{"app":"cg","ranks":4} {"app":"bt"}`)); err == nil {
		t.Fatal("a cluster exec payload with a second value decoded")
	}

	dir := t.TempDir()
	for name, spec := range map[string]string{
		"garbage.json": `{"app":"cg","ranks":4} garbage`,
		"two.json":     `{"app":"cg","ranks":4}` + "\n" + `{"app":"bt","ranks":4}`,
		"ok.json":      `{"app":"cg","ranks":4}` + "\n\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		err := RunScenarioFile(context.Background(), path, Options{Engine: engine.New(1)}, true, io.Discard)
		if (err == nil) != (name == "ok.json") {
			t.Fatalf("scenario file %s: %v", name, err)
		}
	}
}

// TestReadBodyTrustsNoDeclaredLength: a request declaring a 64 MiB body
// and sending a short one is read without allocating what it declared,
// so headers alone cannot pin memory.
func TestReadBodyTrustsNoDeclaredLength(t *testing.T) {
	const body = `{"app":"cg","ranks":4}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 4 {
		r := httptest.NewRequest(http.MethodPost, "/v1/scenarios", strings.NewReader(body))
		r.ContentLength = maxUploadBytes
		if got, ok := readBody(httptest.NewRecorder(), r); !ok || string(got) != body {
			t.Fatalf("read %q, %v", got, ok)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
		t.Fatalf("4 short bodies declaring %d bytes each allocated %d bytes", maxUploadBytes, n)
	}
}

// TestMemoHitWithoutReplyTakesFullPath: a memoized body whose reply has
// left the result cache, with no job in flight, runs again through the
// full path: one result-cache miss, not two, and the same bytes.
func TestMemoHitWithoutReplyTakesFullPath(t *testing.T) {
	s := newMemoServer(t, engine.New(2))
	body := []byte(`{"app":"cg","ranks":4,"axes":[{"kind":"bandwidth","values":[125]}]}`)
	first := s.post(t, "/v1/scenarios", body, false)
	if first.status != http.StatusOK {
		t.Fatalf("status %d: %s", first.status, first.body)
	}
	e, ok := s.m.memo.Get(memoKey("POST /v1/scenarios", body))
	if !ok || !s.m.cache.Delete(e.key) {
		t.Fatalf("memoized %v; the reply must be cached under the memo's key %q", ok, e.key)
	}
	_, misses0 := s.m.cache.Counters()
	hits0 := s.memoHits()
	second := s.post(t, "/v1/scenarios", body, false)
	if second.status != http.StatusOK || !bytes.Equal(first.body, second.body) || second.header.Get("X-Cache") != "miss" {
		t.Fatalf("rerun: status %d, X-Cache %q:\n%s", second.status, second.header.Get("X-Cache"), second.body)
	}
	if _, misses := s.m.cache.Counters(); misses != misses0+1 || s.memoHits() != hits0+1 {
		t.Fatalf("rerun counted %d result-cache misses and %d memo hits, want 1 and 1", misses-misses0, s.memoHits()-hits0)
	}
}

// TestAssembledReplyIsMarshal: a scenario reply assembled frame by frame
// is json.Marshal's bytes of the result, holds no spare capacity beyond
// its allocation's size class, and its frame boundaries cut out the
// header and each point as they marshal alone.
func TestAssembledReplyIsMarshal(t *testing.T) {
	res := &core.ScenarioResult{
		ScenarioHeader: core.ScenarioHeader{App: "cg", Ranks: 4, SpecDigest: "sha256:ab", PlatformDigest: "sha256:cd", Output: "finish", Axes: []core.AxisKind{"bandwidth"}, GridPoints: 2},
		Points: []core.ScenarioPoint{
			{Coords: []core.Coord{{Axis: "bandwidth", Value: "125"}}, Digest: "sha256:01", Flavors: []core.FlavorMeasure{{Flavor: "base", TraceDigest: "sha256:ef", FinishSec: 0.25}}},
			{Coords: []core.Coord{{Axis: "bandwidth", Value: "250"}}, Digest: "sha256:02", Flavors: []core.FlavorMeasure{{Flavor: "base", TraceDigest: "sha256:ef", FinishSec: 0.125}}},
		},
	}
	r, err := assemble(res)
	if err != nil {
		t.Fatal(err)
	}
	if batch, _ := json.Marshal(res); !bytes.Equal(r.body, batch) || cap(r.body) > len(r.body)+len(r.body)/8 {
		t.Fatalf("assembled %d bytes of %d capacity:\n%s\nwant json.Marshal's\n%s", len(r.body), cap(r.body), r.body, batch)
	}
	if hdr, _ := json.Marshal(res.ScenarioHeader); string(r.body[:r.hdr])+"}" != string(hdr) {
		t.Fatalf("header frame %s}, want %s", r.body[:r.hdr], hdr)
	}
	if r.frames() != len(res.Points) {
		t.Fatalf("%d frames, want %d", r.frames(), len(res.Points))
	}
	for i := range res.Points {
		if pt, _ := json.Marshal(res.Points[i]); string(r.body[r.points[i]:r.points[i+1]-1]) != string(pt) {
			t.Fatalf("point frame %d %s, want %s", i, r.body[r.points[i]:r.points[i+1]-1], pt)
		}
	}
}
