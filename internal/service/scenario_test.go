// Golden equivalence and caching tests of the scenario endpoint: the
// acceptance criteria of the unified Scenario API. Each legacy endpoint
// must serve bytes identical to its scenario-spec translation, and a
// repeated scenario submission must be served from cache byte-identically
// with zero new engine jobs.
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// rawScenarioResult mirrors core.ScenarioResult but keeps the per-point
// payloads as raw bytes, so byte-level comparisons against the legacy
// endpoints see the exact served JSON.
type rawScenarioResult struct {
	PlatformDigest string `json:"platform_digest"`
	Points         []struct {
		Flavors []core.FlavorMeasure `json:"flavors"`
		WhatIf  json.RawMessage      `json:"whatif"`
		Report  json.RawMessage      `json:"report"`
	} `json:"points"`
}

// TestScenarioCrossProductCached is the headline acceptance path: one
// spec with two sweep axes (bandwidth × mapping) executes as one
// cross-product grid, and resubmitting the same spec is served from
// cache byte-identically with zero new engine jobs.
func TestScenarioCrossProductCached(t *testing.T) {
	mgr, cl := newService(t, 4)
	ctx := context.Background()
	req := service.ScenarioRequest{
		App: "cg", Ranks: 8,
		Platform: &service.PlatformSpec{Preset: "marenostrum-4x"},
		Axes: []core.Axis{
			core.BandwidthAxis(125, 500),
			core.MappingAxis("block", "rr"),
		},
		Output: "traffic",
	}
	first, err := cl.ScenarioRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var res core.ScenarioResult
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("%d grid points, want 4 (2 bandwidths x 2 mappings)", len(res.Points))
	}
	if res.SpecDigest == "" || res.Points[0].Coords[0].Axis != core.AxisBandwidth {
		t.Fatalf("malformed result: %+v", res)
	}
	afterFirst := mgr.Engine().Stats()
	second, err := cl.ScenarioRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached scenario response not byte-identical")
	}
	if afterSecond := mgr.Engine().Stats(); afterSecond.Started != afterFirst.Started {
		t.Fatalf("cached scenario spawned engine jobs: %d -> %d", afterFirst.Started, afterSecond.Started)
	}
	// Equivalent spelling — the same platform inline instead of by preset
	// name — must also hit the cache (canonical spec digests collapse).
	before := mgr.Engine().Stats()
	plat := res.PlatformDigest
	respell := req
	respell.Platform = &service.PlatformSpec{Digest: plat}
	third, err := cl.ScenarioRaw(ctx, respell)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, third) {
		t.Fatal("platform-digest spelling returned different bytes")
	}
	if after := mgr.Engine().Stats(); after.Started != before.Started {
		t.Fatal("equivalent spelling re-simulated instead of hitting the cache")
	}
}

// TestDegradedPlatformDigestResolves: a request's degradations block is
// part of the platform its reply's platform_digest names, so the same
// study sent by that digest, without the block, is the same spec: a
// byte-identical cache hit with zero new engine jobs.
func TestDegradedPlatformDigestResolves(t *testing.T) {
	mgr, cl := newService(t, 2)
	ctx := context.Background()
	first, err := cl.ScenarioRaw(ctx, service.ScenarioRequest{
		App: "cg", Ranks: 4, Degradations: &faults.Spec{DerateInter: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var res core.ScenarioResult
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatal(err)
	}
	healthy, err := network.TestbedFor("cg", 4).Digest()
	if err != nil {
		t.Fatal(err)
	}
	if res.PlatformDigest == healthy {
		t.Fatalf("degraded study reports the healthy platform digest %s", healthy)
	}
	before := mgr.Engine().Stats()
	second, err := cl.ScenarioRaw(ctx, service.ScenarioRequest{
		App: "cg", Ranks: 4, Platform: &service.PlatformSpec{Digest: res.PlatformDigest},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("study by platform digest differs:\n%s\n%s", first, second)
	}
	assertNoNewJobs(t, mgr, before)
}

// TestAnalyzeIsScenarioTranslation: POST /v1/analyze serves exactly the
// report a zero-axis report-output scenario embeds in its single point,
// and that scenario then resumes from the analysis's cached point.
func TestAnalyzeIsScenarioTranslation(t *testing.T) {
	mgr, cl := newService(t, 2)
	ctx := context.Background()
	legacy, err := cl.AnalyzeRaw(ctx, service.AnalyzeRequest{App: "cg", Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := mgr.Engine().Stats()
	raw, err := cl.ScenarioRaw(ctx, service.ScenarioRequest{App: "cg", Ranks: 4, Output: "report"})
	if err != nil {
		t.Fatal(err)
	}
	assertNoNewJobs(t, mgr, before)
	var res rawScenarioResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d points, want 1", len(res.Points))
	}
	if !bytes.Equal(legacy, res.Points[0].Report) {
		t.Fatalf("legacy analyze differs from scenario translation:\n%s\n%s", legacy, res.Points[0].Report)
	}
}

// TestWhatIfIsScenarioTranslation: POST /v1/whatif == the scenario
// point's whatif payload, byte for byte, and the scenario costs no new
// engine jobs.
func TestWhatIfIsScenarioTranslation(t *testing.T) {
	mgr, cl := newService(t, 2)
	ctx := context.Background()
	wi, err := cl.WhatIf(ctx, service.WhatIfRequest{App: "cg", Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(wi)
	if err != nil {
		t.Fatal(err)
	}
	before := mgr.Engine().Stats()
	raw, err := cl.ScenarioRaw(ctx, service.ScenarioRequest{App: "cg", Ranks: 4, Output: "whatif"})
	if err != nil {
		t.Fatal(err)
	}
	assertNoNewJobs(t, mgr, before)
	var res rawScenarioResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d points, want 1", len(res.Points))
	}
	if !bytes.Equal(legacy, res.Points[0].WhatIf) {
		t.Fatalf("legacy whatif differs from scenario translation:\n%s\n%s", legacy, res.Points[0].WhatIf)
	}
}

// TestBandwidthSweepIsScenarioTranslation: the legacy sweep response is
// reconstructible byte-for-byte from a bandwidth-axis scenario, which
// resumes every point from the sweep's.
func TestBandwidthSweepIsScenarioTranslation(t *testing.T) {
	mgr, cl := newService(t, 2)
	ctx := context.Background()
	bandwidths := []float64{50, 250, 1000}
	legacy, err := cl.SweepBandwidth(ctx, service.BandwidthSweepRequest{
		App: "cg", Ranks: 4, Bandwidths: bandwidths,
	})
	if err != nil {
		t.Fatal(err)
	}
	legacyJSON, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	before := mgr.Engine().Stats()
	scen, err := cl.Scenario(ctx, service.ScenarioRequest{
		App: "cg", Ranks: 4,
		Flavors: []string{"overlap-real"},
		Axes:    []core.Axis{core.BandwidthAxis(bandwidths...)},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertNoNewJobs(t, mgr, before)
	rebuilt := &core.WireBandwidthSweep{
		App:            scen.App,
		Flavor:         string(scen.Points[0].Flavors[0].Flavor),
		TraceDigest:    scen.Points[0].Flavors[0].TraceDigest,
		PlatformDigest: scen.PlatformDigest,
	}
	for i, pt := range scen.Points {
		rebuilt.Points = append(rebuilt.Points, core.WireSweepPoint{
			BandwidthMBps: bandwidths[i],
			FinishSec:     pt.Flavors[0].FinishSec,
		})
	}
	rebuiltJSON, err := json.Marshal(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacyJSON, rebuiltJSON) {
		t.Fatalf("legacy bandwidth sweep differs from scenario translation:\n%s\n%s", legacyJSON, rebuiltJSON)
	}
}

// assertNoNewJobs fails the test if the manager's engine started jobs
// since before: the per-kind endpoints share the scenario path's point
// cache, so the equivalent scenario after a per-kind call simulates
// nothing.
func assertNoNewJobs(t *testing.T, mgr *service.Manager, before engine.Stats) {
	t.Helper()
	if after := mgr.Engine().Stats(); after.Started != before.Started {
		t.Fatalf("equivalent scenario started %d engine jobs after the per-kind call", after.Started-before.Started)
	}
}

// TestMappingSweepIsScenarioTranslation: the legacy mapping sweep is
// reconstructible byte-for-byte from a mapping-axis traffic scenario.
func TestMappingSweepIsScenarioTranslation(t *testing.T) {
	_, cl := newService(t, 2)
	ctx := context.Background()
	legacy, err := cl.SweepMapping(ctx, service.MappingSweepRequest{
		App: "cg", Ranks: 8,
		Platform: &service.PlatformSpec{Preset: "marenostrum-4x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	legacyJSON, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	scen, err := cl.Scenario(ctx, service.ScenarioRequest{
		App: "cg", Ranks: 8,
		Platform: &service.PlatformSpec{Preset: "marenostrum-4x"},
		Flavors:  []string{"base", "overlap-real"},
		Axes:     []core.Axis{core.MappingAxis("block", "rr")},
		Output:   "traffic",
	})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := &core.WireMappingSweep{
		App:            scen.App,
		Ranks:          scen.Ranks,
		PlatformDigest: scen.PlatformDigest,
	}
	for _, pt := range scen.Points {
		base, real := pt.Flavors[0], pt.Flavors[1]
		rebuilt.Points = append(rebuilt.Points, core.WireMappingPoint{
			Mapping:       pt.Coords[0].Value,
			BaseFinishSec: base.FinishSec,
			RealFinishSec: real.FinishSec,
			SpeedupReal:   metrics.Speedup(base.FinishSec, real.FinishSec),
			IntraBytes:    base.Traffic.IntraBytes,
			InterBytes:    base.Traffic.InterBytes,
		})
	}
	rebuiltJSON, err := json.Marshal(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacyJSON, rebuiltJSON) {
		t.Fatalf("legacy mapping sweep differs from scenario translation:\n%s\n%s", legacyJSON, rebuiltJSON)
	}
}

// TestScenarioTraceWorkload runs a scenario over an uploaded trace and
// checks it matches the legacy trace-mode sweep, that the compiled
// program stays reachable while the store holds the trace, and that
// deleting the trace over HTTP makes the program unreachable.
func TestScenarioTraceWorkload(t *testing.T) {
	mgr, cl := newService(t, 2)
	ctx := context.Background()
	entry, _ := apps.ByName("cg", 4)
	run, err := tracer.Trace("cg", 4, tracer.DefaultConfig(), entry.App.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cl.UploadTrace(ctx, run.BaseTrace())
	if err != nil {
		t.Fatal(err)
	}
	bandwidths := []float64{50, 250, 1000}
	legacy, err := cl.SweepBandwidth(ctx, service.BandwidthSweepRequest{
		Trace: info.Digest, Bandwidths: bandwidths,
	})
	if err != nil {
		t.Fatal(err)
	}
	scen, err := cl.Scenario(ctx, service.ScenarioRequest{
		Trace: info.Digest,
		Axes:  []core.Axis{core.BandwidthAxis(bandwidths...)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if scen.TraceDigest != info.Digest || scen.App != "cg" {
		t.Fatalf("scenario workload %+v", scen)
	}
	for i, pt := range scen.Points {
		if pt.Flavors[0].FinishSec != legacy.Points[i].FinishSec {
			t.Fatalf("point %d: scenario %g, legacy %g", i, pt.Flavors[0].FinishSec, legacy.Points[i].FinishSec)
		}
	}
	// The store's value owns the program the runs compiled. Two
	// collections also empty sync.Pool's victim cache, whose replay
	// arenas keep the program they last replayed.
	prog := func() weak.Pointer[sim.Program] {
		st, err := mgr.Store().GetTrace(info.Digest)
		if err != nil {
			t.Fatal(err)
		}
		p, err := st.Program()
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(p)
	}()
	runtime.GC()
	runtime.GC()
	if prog.Value() == nil {
		t.Fatal("stored trace's compiled program dropped while the trace is stored")
	}
	// Deleting the trace lets its compiled program go too.
	if err := cl.DeleteTrace(ctx, info.Digest); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if prog.Value() != nil {
		t.Fatal("deleted trace's compiled program still reachable")
	}
	if err := cl.DeleteTrace(ctx, info.Digest); err == nil {
		t.Fatal("deleting an unknown trace succeeded")
	}
}

// TestScenarioRequestValidation rejects malformed scenario specs without
// touching the engine.
func TestScenarioRequestValidation(t *testing.T) {
	mgr, cl := newService(t, 1)
	ctx := context.Background()
	before := mgr.Engine().Stats()
	big := make([]int, 40)
	for i := range big {
		big[i] = i + 1
	}
	wide := make([]int, 30)
	for i := range wide {
		wide[i] = i + 1
	}
	// Eight 256-point axes: 2^64 points, a product that wraps an int.
	values := func(f func(i int) float64) []float64 {
		out := make([]float64, 256)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	counts := func(from int) []int {
		out := make([]int, 256)
		for i := range out {
			out[i] = from + i
		}
		return out
	}
	overflow := []core.Axis{
		core.BandwidthAxis(values(func(i int) float64 { return float64(i + 1) })...),
		core.LatencyAxis(values(func(i int) float64 { return float64(i) * 1e-6 })...),
		core.BusesAxis(counts(0)...),
		core.ChunksAxis(counts(1)...),
		core.NodeCountAxis(counts(1)...),
		core.DerateAxis(values(func(i int) float64 { return float64(i+1) / 256 })...),
		core.JitterAxis(values(func(i int) float64 { return float64(i) / 256 })...),
		core.StragglersAxis(counts(0)...),
	}
	cases := []service.ScenarioRequest{
		{}, // no workload
		{App: "cg", Ranks: 4, Trace: "sha256:" + strings.Repeat("0", 64)}, // both workloads
		{App: "nonesuch", Ranks: 4},
		{App: "cg", Ranks: 4, Output: "everything"},
		{App: "cg", Ranks: 4, Flavors: []string{"quantum"}},
		{App: "cg", Ranks: 4, Axes: []core.Axis{{Kind: core.AxisBandwidth}}},                       // empty axis
		{App: "cg", Ranks: 4, Axes: []core.Axis{core.ChunksAxis(big...), core.BusesAxis(wide...)}}, // 1200-point grid
		{App: "cg", Ranks: 4, Axes: []core.Axis{core.RanksAxis(4096)}},                             // over maxRanks
		{Trace: "sha256:" + strings.Repeat("0", 64)},                                               // unknown trace
		{App: "cg", Ranks: 8, Axes: overflow},                                                      // grid size overflows int
	}
	for i, req := range cases {
		if _, err := cl.Scenario(ctx, req); err == nil {
			t.Errorf("case %d (%+v) accepted", i, req)
		}
	}
	if after := mgr.Engine().Stats(); after.Started != before.Started {
		t.Fatalf("invalid scenarios spawned engine jobs: %d -> %d", before.Started, after.Started)
	}
}

// cacheBuilds scrapes the trace cache's counters: applications traced
// and flavor programs built (summed over flavors, and for overlap-real).
func cacheBuilds(t *testing.T, cl *client.Client) (runs, builds, real float64) {
	t.Helper()
	pm, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return val(pm, "engine_trace_runs_total"), val(pm, "engine_program_builds_total"),
		val(pm, `engine_program_builds_total{flavor="overlap-real"}`)
}

// TestScenarioChunkCountsShareOneTrace: tracing reads no chunk count,
// so two specs that differ only in their top-level chunks trace the
// kernel once; the second builds only its overlap-real program (the
// base program is chunk-independent). Both replies are a fresh
// manager's bytes.
func TestScenarioChunkCountsShareOneTrace(t *testing.T) {
	mgr, cl := newService(t, 2)
	ctx := context.Background()
	runs0, builds0, _ := cacheBuilds(t, cl)
	var replies [][]byte
	for _, k := range []int{2, 8} {
		got, err := cl.ScenarioRaw(ctx, service.ScenarioRequest{App: "cg", Ranks: 8, Chunks: k})
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, got)
	}
	runs, builds, _ := cacheBuilds(t, cl)
	if n := mgr.Engine().Traces().Len(); n != 1 {
		t.Errorf("trace cache holds %d runs after chunks 2 and 8, want 1", n)
	}
	if runs-runs0 != 1 || builds-builds0 != 3 {
		t.Errorf("chunks 2 and 8 traced %v times and built %v programs, want 1 and 3 (base, and overlap-real twice)",
			runs-runs0, builds-builds0)
	}
	for i, k := range []int{2, 8} {
		_, fresh := newService(t, 2)
		want, err := fresh.ScenarioRaw(ctx, service.ScenarioRequest{App: "cg", Ranks: 8, Chunks: k})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(replies[i], want) {
			t.Errorf("chunks %d: shared-trace reply differs from a fresh manager's", k)
		}
	}
}

// TestScenarioChunkAxesShareProgram: two chunk-axis specs that share a
// chunk count build its program once on one manager, and its digest is
// the digest of a private build at that chunk count.
func TestScenarioChunkAxesShareProgram(t *testing.T) {
	_, cl := newService(t, 2)
	ctx := context.Background()
	spec := func(counts ...int) service.ScenarioRequest {
		return service.ScenarioRequest{App: "cg", Ranks: 8, Axes: []core.Axis{core.ChunksAxis(counts...)}}
	}
	if _, err := cl.ScenarioRaw(ctx, spec(2, 3)); err != nil {
		t.Fatal(err)
	}
	runs0, builds0, real0 := cacheBuilds(t, cl)
	body, err := cl.ScenarioRaw(ctx, spec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	runs, builds, real := cacheBuilds(t, cl)
	if runs != runs0 || builds-builds0 != 1 || real-real0 != 1 {
		t.Errorf("second spec traced %v times and built %v programs (%v overlap-real), want 0 and 1 (chunks 5 only)",
			runs-runs0, builds-builds0, real-real0)
	}

	var res core.ScenarioResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	entry, _ := apps.ByName("cg", 8)
	run, err := tracer.Trace("cg", 8, tracer.DefaultConfig(), entry.App.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Digest(run.WithChunks(3).OverlapReal())
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for _, f := range res.Points[0].Flavors {
		if f.Flavor == core.FlavorReal {
			got = f.TraceDigest
		}
	}
	if got != want {
		t.Fatalf("chunks 3 overlap-real digest %q, private build %q", got, want)
	}
}
