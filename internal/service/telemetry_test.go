// The observability acceptance path: one scenario through the full
// stack, then both exposition endpoints — /metrics (Prometheus text
// format, parsed with the repo's own parser) and /v1/debug/telemetry
// (deterministic JSON snapshot) — must serve the engine, service,
// scenario-stage, and PDES shard-phase families, all advanced by the
// work the scenario caused.
package service_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/telemetry"
)

// val reads one sample (or label-summed family) from a parsed scrape,
// treating absence as zero.
func val(pm telemetry.ParsedMetrics, key string) float64 {
	v, _ := pm.Value(key)
	return v
}

func TestObservabilityEndpoints(t *testing.T) {
	eng := engine.New(4)
	// ReplayShards=2 forces the PDES path so the shard-phase families
	// advance; fatnode-smp at 32 ranks is 2 nodes with unlimited intra
	// buses, which is exactly what EffectiveShards requires.
	mgr, err := service.NewManager(service.Options{Engine: eng, ReplayShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(mgr))
	t.Cleanup(srv.Close)
	cl := client.New(srv.URL, srv.Client())
	ctx := context.Background()

	// Baseline scrape: proves the body parses as Prometheus text format
	// even before this test causes any work (the registry is process
	// global, so absolute values belong to the whole test binary).
	before, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	req := service.ScenarioRequest{
		App: "cg", Ranks: 32,
		Platform: &service.PlatformSpec{Preset: "fatnode-smp"},
		Output:   "finish",
	}
	if _, err := cl.ScenarioRaw(ctx, req); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("middleware did not stamp X-Request-Id")
	}

	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Every layer's family must exist and have advanced past the
	// pre-scenario scrape.
	advanced := []string{
		"engine_jobs_started_total",                // engine
		"engine_job_seconds_count",                 // engine histogram
		"engine_trace_runs_total",                  // trace cache: the fresh engine traced cg
		"engine_program_builds_total",              // trace cache: flavor programs (summed over labels)
		"sim_replays_total",                        // sim replay core
		"sim_replay_events_total",                  // calendar-queue pops
		"sim_pdes_replays_total",                   // PDES path taken
		"sim_pdes_windows_total",                   // horizon advances
		"sim_pdes_shard_events_total",              // per-shard events (summed over labels)
		"sim_pdes_parallel_seconds_total",          // shard-phase wall time
		"scenario_stage_seconds_count",             // per-stage timings (all stages)
		"http_requests_total",                      // middleware counter
		"service_result_cache_misses_total",        // manager funcs
		`scenario_points_total{source="computed"}`, // the point we computed
	}
	for _, key := range advanced {
		b, a := val(before, key), val(after, key)
		if a <= b {
			t.Errorf("%s did not advance: %v -> %v", key, b, a)
		}
	}
	// The endpoint-labelled series carries the mux pattern, not the path.
	if val(after, `http_requests_total{code="200",endpoint="POST /v1/scenarios"}`) < 1 {
		t.Errorf("no pattern-labelled request count for POST /v1/scenarios; keys: %v", after.Keys())
	}
	if val(after, `scenario_stage_seconds_count{stage="replay"}`) < 1 {
		t.Errorf("no replay-stage timing recorded")
	}

	// The JSON snapshot serves the same families.
	snap, err := cl.Telemetry(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"engine_jobs_started_total", "engine_job_wait_seconds",
		"engine_trace_runs_total", "engine_program_builds_total", "engine_pattern_analyses_total",
		"sim_replays_total", "sim_pdes_windows_total", "sim_pdes_shard_events_total",
		"scenario_stage_seconds", "scenario_points_total",
		"http_requests_total", "http_request_seconds",
		"service_queue_wait_seconds", "service_result_cache_hits_total",
		"service_queue_depth", "service_uptime_seconds",
	} {
		m := snap.Find(name)
		if m == nil {
			t.Errorf("snapshot is missing %s", name)
			continue
		}
		if len(m.Samples) == 0 {
			t.Errorf("snapshot family %s has no samples", name)
		}
	}
	if m := snap.Find("service_uptime_seconds"); m != nil && m.Samples[0].Value <= 0 {
		t.Errorf("service_uptime_seconds = %v, want > 0", m.Samples[0].Value)
	}

	// A cached rerun serves bytes without engine work: the engine job
	// counter must not move, while the result-cache hit counter must.
	beforeRerun := after
	if _, err := cl.ScenarioRaw(ctx, req); err != nil {
		t.Fatal(err)
	}
	rerun, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := val(rerun, "engine_jobs_started_total"), val(beforeRerun, "engine_jobs_started_total"); got != want {
		t.Errorf("cached rerun spawned engine jobs: %v -> %v", want, got)
	}
	if val(rerun, "service_result_cache_hits_total") <= val(beforeRerun, "service_result_cache_hits_total") {
		t.Errorf("cached rerun did not count a result-cache hit")
	}
}
