// Tests of the service subsystem through its public face: the HTTP
// handler behind an httptest server, spoken to through the client
// package — the same path production traffic takes. Run with -race (CI
// does): the singleflight and cache paths are exactly where data races
// would live.
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/tracer"
)

// newService spins up a full stack: engine, manager, handler, httptest
// server, client.
func newService(t *testing.T, workers int) (*service.Manager, *client.Client) {
	t.Helper()
	eng := engine.New(workers)
	mgr, err := service.NewManager(service.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(mgr))
	t.Cleanup(srv.Close)
	return mgr, client.New(srv.URL, srv.Client())
}

// TestEndToEndCachedByteIdentical is the acceptance path: the same
// analyze request twice returns byte-identical reports, the second served
// from cache with no new engine jobs, and the report matches what the
// core pipeline (the cmd/experiments code path) computes directly.
func TestEndToEndCachedByteIdentical(t *testing.T) {
	mgr, cl := newService(t, 2)
	ctx := context.Background()
	req := service.AnalyzeRequest{App: "cg", Ranks: 4}

	first, err := cl.AnalyzeRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := mgr.Engine().Stats()

	second, err := cl.AnalyzeRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("responses differ:\n%s\n%s", first, second)
	}
	afterSecond := mgr.Engine().Stats()
	if afterSecond.Started != afterFirst.Started {
		t.Fatalf("cached request spawned engine jobs: %d -> %d", afterFirst.Started, afterSecond.Started)
	}
	met := mgr.MetricsSnapshot()
	if met.CacheHits == 0 {
		t.Fatalf("no cache hit recorded: %+v", met)
	}

	// The served report matches the direct core pipeline — the same
	// entry point cmd/experiments drives — for the same app, platform,
	// and flavours, down to the marshalled bytes.
	entry, _ := apps.ByName("cg", 4)
	plat := network.TestbedFor("cg", 4).Platform()
	rep, err := core.Analyze(ctx, mgr.Engine(), entry.App, 4, plat, tracer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wire, err := rep.Wire()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, direct) {
		t.Fatalf("service report differs from the core pipeline:\nservice: %s\ndirect:  %s", first, direct)
	}
	// And the Fig. 6a line the experiments CLI would print is identical.
	var served core.WireReport
	if err := json.Unmarshal(first, &served); err != nil {
		t.Fatal(err)
	}
	cliLine := fmt.Sprintf("%-12s %14.3f %14.3f", "cg", rep.SpeedupReal, rep.SpeedupIdeal)
	servedLine := fmt.Sprintf("%-12s %14.3f %14.3f", served.App, served.SpeedupReal, served.SpeedupIdeal)
	if cliLine != servedLine {
		t.Fatalf("CLI line mismatch:\n%q\n%q", cliLine, servedLine)
	}
}

// TestSingleflightIdenticalInFlight fires N identical requests
// concurrently and proves the computation ran once: every later request
// either joined the in-flight job (deduped) or hit the result cache, and
// all N responses are byte-identical.
func TestSingleflightIdenticalInFlight(t *testing.T) {
	mgr, cl := newService(t, 2)
	const n = 8
	req := service.AnalyzeRequest{App: "bt", Ranks: 4}

	responses := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = cl.AnalyzeRaw(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(responses[0], responses[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	met := mgr.MetricsSnapshot()
	if met.Deduped+met.CacheHits != n-1 {
		t.Fatalf("deduped=%d + hits=%d != %d: %d computations ran",
			met.Deduped, met.CacheHits, n-1, 1+n-1-int(met.Deduped)-int(met.CacheHits))
	}
	if met.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1", met.CacheMisses)
	}
}

// TestDistinctConcurrentRequestsDeterministic runs M distinct in-flight
// requests and checks they all complete, each deterministically: a rerun
// of every request returns the same bytes.
func TestDistinctConcurrentRequestsDeterministic(t *testing.T) {
	_, cl := newService(t, 4)
	reqs := []service.AnalyzeRequest{
		{App: "cg", Ranks: 4},
		{App: "cg", Ranks: 8},
		{App: "bt", Ranks: 4},
		{App: "sweep3d", Ranks: 4},
		{App: "cg", Ranks: 4, Chunks: 8},
		{App: "cg", Ranks: 4, Platform: &service.PlatformSpec{Preset: "marenostrum-4x"}},
	}
	firstPass := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r service.AnalyzeRequest) {
			defer wg.Done()
			firstPass[i], errs[i] = cl.AnalyzeRaw(context.Background(), r)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d (%+v): %v", i, reqs[i], err)
		}
	}
	// Distinct requests produce distinct results…
	for i := 1; i < len(firstPass); i++ {
		if bytes.Equal(firstPass[0], firstPass[i]) {
			t.Fatalf("distinct requests 0 and %d returned identical reports", i)
		}
	}
	// …and each rerun reproduces its bytes exactly.
	for i, r := range reqs {
		again, err := cl.AnalyzeRaw(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(firstPass[i], again) {
			t.Fatalf("request %d not deterministic", i)
		}
	}
}

// TestPlatformSpellingsShareCache checks content addressing does its job:
// naming a platform by preset and uploading the identical platform inline
// collapse to one cache entry.
func TestPlatformSpellingsShareCache(t *testing.T) {
	mgr, cl := newService(t, 2)
	ctx := context.Background()

	byPreset, err := cl.AnalyzeRaw(ctx, service.AnalyzeRequest{
		App: "cg", Ranks: 4,
		Platform: &service.PlatformSpec{Preset: "marenostrum-4x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Spell the same platform as an inline JSON document.
	plat, err := network.PlatformPreset("marenostrum-4x", 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plat.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	before := mgr.Engine().Stats()
	inline, err := cl.AnalyzeRaw(ctx, service.AnalyzeRequest{
		App: "cg", Ranks: 4,
		Platform: &service.PlatformSpec{Inline: json.RawMessage(buf.Bytes())},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(byPreset, inline) {
		t.Fatal("preset and inline spellings of one platform returned different reports")
	}
	if after := mgr.Engine().Stats(); after.Started != before.Started {
		t.Fatal("inline spelling re-simulated instead of hitting the cache")
	}
}

// TestAsyncJobLifecycle drives the submit/poll path and the job listing.
func TestAsyncJobLifecycle(t *testing.T) {
	_, cl := newService(t, 2)
	ctx := context.Background()
	st, err := cl.AnalyzeAsync(ctx, service.AnalyzeRequest{App: "cg", Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("no job id: %+v", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err = cl.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.JobDone {
			break
		}
		if st.State == service.JobFailed || st.State == service.JobCancelled {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(st.Result) == 0 {
		t.Fatal("done job carries no result")
	}
	var rep core.WireReport
	if err := json.Unmarshal(st.Result, &rep); err != nil {
		t.Fatalf("result not a wire report: %v", err)
	}
	if rep.App != "cg" || len(rep.Flavors) != 3 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	jobs, err := cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("job listing empty")
	}
	if err := cl.Cancel(ctx, "job-99999999"); err == nil {
		t.Fatal("cancelling an unknown job succeeded")
	}
}

// TestTraceUploadAndBandwidthSweep uploads a traced run's base trace and
// sweeps it across bandwidths — the replay-without-retracing workflow.
func TestTraceUploadAndBandwidthSweep(t *testing.T) {
	_, cl := newService(t, 2)
	ctx := context.Background()

	entry, _ := apps.ByName("cg", 4)
	run, err := tracer.Trace("cg", 4, tracer.DefaultConfig(), entry.App.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	tr := run.BaseTrace()
	info, err := cl.UploadTrace(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ranks != 4 || info.Name != "cg" {
		t.Fatalf("upload summary %+v", info)
	}

	// Round trip: the stored trace digests to its address.
	back, err := cl.DownloadTrace(ctx, info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRanks != tr.NumRanks || len(back.Ranks[0].Records) != len(tr.Ranks[0].Records) {
		t.Fatal("download mangled the trace")
	}

	sweep, err := cl.SweepBandwidth(ctx, service.BandwidthSweepRequest{
		Trace:      info.Digest,
		Bandwidths: []float64{50, 250, 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 3 || sweep.TraceDigest != info.Digest {
		t.Fatalf("sweep %+v", sweep)
	}
	if !(sweep.Points[0].FinishSec >= sweep.Points[1].FinishSec && sweep.Points[1].FinishSec >= sweep.Points[2].FinishSec) {
		t.Fatalf("finish time not monotone in bandwidth: %+v", sweep.Points)
	}
}

// TestWhatIfAndMappingSweep exercises the two remaining job kinds end to
// end.
func TestWhatIfAndMappingSweep(t *testing.T) {
	_, cl := newService(t, 2)
	ctx := context.Background()

	wi, err := cl.WhatIf(ctx, service.WhatIfRequest{App: "cg", Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if wi.App != "cg" || len(wi.Buffers) == 0 {
		t.Fatalf("what-if %+v", wi)
	}

	ms, err := cl.SweepMapping(ctx, service.MappingSweepRequest{
		App: "cg", Ranks: 8,
		Platform: &service.PlatformSpec{Preset: "marenostrum-4x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Points) != 2 || ms.Points[0].Mapping != "block" || ms.Points[1].Mapping != "rr" {
		t.Fatalf("mapping sweep %+v", ms)
	}
	if ms.Points[0].IntraBytes == 0 {
		t.Fatal("block mapping on a 4-way-node platform moved no intra-node bytes")
	}
}

// TestMappingSpellingsShareCache checks that "block" and its explicit
// node-list spelling collapse to one cache key (placement, not spelling,
// is what the key addresses).
func TestMappingSpellingsShareCache(t *testing.T) {
	mgr, cl := newService(t, 2)
	ctx := context.Background()
	if _, err := cl.SweepMapping(ctx, service.MappingSweepRequest{
		App: "cg", Ranks: 8,
		Platform: &service.PlatformSpec{Preset: "marenostrum-4x"},
		Mappings: []string{"block"},
	}); err != nil {
		t.Fatal(err)
	}
	before := mgr.Engine().Stats()
	// marenostrum-4x at 8 ranks packs 4 ranks per node: block = 0,0,0,0,1,1,1,1.
	if _, err := cl.SweepMapping(ctx, service.MappingSweepRequest{
		App: "cg", Ranks: 8,
		Platform: &service.PlatformSpec{Preset: "marenostrum-4x"},
		Mappings: []string{"0,0,0,0,1,1,1,1"},
	}); err != nil {
		t.Fatal(err)
	}
	if after := mgr.Engine().Stats(); after.Started != before.Started {
		t.Fatal("explicit spelling of block re-simulated instead of hitting the cache")
	}
}

// TestRequestValidation checks the daemon rejects malformed work without
// touching the engine.
func TestRequestValidation(t *testing.T) {
	mgr, cl := newService(t, 1)
	ctx := context.Background()
	before := mgr.Engine().Stats()
	cases := []service.Request{
		service.AnalyzeRequest{App: "nonesuch", Ranks: 4},
		service.AnalyzeRequest{App: "cg", Ranks: 0},
		service.AnalyzeRequest{App: "cg", Ranks: 4, Chunks: -1},
		service.AnalyzeRequest{App: "cg", Ranks: 4, Platform: &service.PlatformSpec{Preset: "nonesuch"}},
		service.AnalyzeRequest{App: "cg", Ranks: 4, Platform: &service.PlatformSpec{Preset: "ideal", Digest: "sha256:abc"}},
		service.AnalyzeRequest{App: "cg", Ranks: 4, Platform: &service.PlatformSpec{Digest: "../../../etc/passwd"}},
		service.BandwidthSweepRequest{App: "cg", Ranks: 4},
		service.BandwidthSweepRequest{App: "cg", Ranks: 4, Bandwidths: []float64{-5}},
		service.BandwidthSweepRequest{Bandwidths: []float64{100}},
		// Trace mode must reject the app-mode knobs instead of silently
		// ignoring them.
		service.BandwidthSweepRequest{Trace: "sha256:" + strings.Repeat("0", 64), Flavor: "base", Bandwidths: []float64{100}},
		service.MappingSweepRequest{App: "cg", Ranks: 4, Mappings: []string{"zigzag?"}},
	}
	for i, req := range cases {
		var err error
		switch r := req.(type) {
		case service.AnalyzeRequest:
			_, err = cl.Analyze(ctx, r)
		case service.BandwidthSweepRequest:
			_, err = cl.SweepBandwidth(ctx, r)
		case service.MappingSweepRequest:
			_, err = cl.SweepMapping(ctx, r)
		}
		if err == nil {
			t.Errorf("case %d (%+v) accepted", i, req)
		}
	}
	if after := mgr.Engine().Stats(); after.Started != before.Started {
		t.Fatalf("invalid requests spawned engine jobs: %d -> %d", before.Started, after.Started)
	}
}
