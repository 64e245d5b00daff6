package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; it lives in
// BENCHMARK.json, which must list exactly these names, units and
// directions.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetrics are what a user of the daemon sees; every workload reports
// all of them (a batch response delivers its first point with its last
// byte, so there ttfp equals the latency).
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "points_per_s", Unit: "1/s", Better: "higher"},
	{Name: "req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "lat_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "ttfp_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "alloc_kb_per_req", Unit: "KB", Better: "lower"},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower"},
}

// layerMetrics come from the traced run: counter deltas over the window,
// spans recorded at the layer boundaries the benchmark builds, and direct
// calls into single layers made after the window.
var layerMetrics = []metricDef{
	{Name: "tracer.trace_ms", Unit: "ms", Better: "lower"},
	{Name: "tracer.build_ms", Unit: "ms", Better: "lower"},
	{Name: "tracer.runs", Unit: "count", Better: "lower"},
	{Name: "trace.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.codec_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.replay_us", Unit: "us", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.replay_shards2_us", Unit: "us", Better: "lower"},
	{Name: "sim.pdes_speedup_x.cg", Unit: "x", Better: "higher"},
	{Name: "sim.pdes_speedup_x.specfem3d", Unit: "x", Better: "higher"},
	{Name: "sim.pdes_speedup_x.pop", Unit: "x", Better: "higher"},
	{Name: "sim.pdes_speedup_x.sweep3d", Unit: "x", Better: "higher"},
	{Name: "sim.pdes_parallel_frac", Unit: "frac", Better: "higher"},
	{Name: "sim.pdes_windows_per_replay", Unit: "count", Better: "lower"},
	{Name: "sim.pdes_shard_imbalance", Unit: "x", Better: "lower"},
	{Name: "sim.replays", Unit: "count", Better: "lower"},
	{Name: "engine.jobs", Unit: "count", Better: "lower"},
	{Name: "engine.failed", Unit: "count", Better: "lower"},
	{Name: "engine.busy_s", Unit: "s", Better: "lower"},
	{Name: "engine.util", Unit: "frac", Better: "higher"},
	{Name: "engine.wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "core.stage_compile_s", Unit: "s", Better: "lower"},
	{Name: "core.stage_replay_s", Unit: "s", Better: "lower"},
	{Name: "core.stage_copyout_s", Unit: "s", Better: "lower"},
	{Name: "core.stage_emit_s", Unit: "s", Better: "lower"},
	{Name: "core.points_computed", Unit: "count", Better: "lower"},
	{Name: "core.points_cached", Unit: "count", Better: "higher"},
	{Name: "core.plan_us", Unit: "us", Better: "lower"},
	{Name: "core.stream_us_per_point", Unit: "us", Better: "lower"},
	{Name: "service.result_hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "service.result_hits", Unit: "count", Better: "higher"},
	{Name: "service.result_attempts", Unit: "count", Better: "higher"},
	{Name: "service.point_hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "service.point_hits", Unit: "count", Better: "higher"},
	{Name: "service.point_attempts", Unit: "count", Better: "higher"},
	{Name: "service.deduped", Unit: "count", Better: "higher"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "service.queue_wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "service.direct_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "http.client_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "http.server_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "http.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "http.ttfb_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "http.req_kb_mean", Unit: "KB", Better: "lower"},
	{Name: "http.resp_kb_mean", Unit: "KB", Better: "lower"},
	{Name: "cluster.rpcs_per_req", Unit: "count", Better: "lower"},
	{Name: "cluster.exec_rpcs_per_point", Unit: "count", Better: "lower"},
	{Name: "cluster.rpc_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rpc_store_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rpc_find_value_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rpc_find_node_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rpc_ping_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rpc_kb_per_req", Unit: "KB", Better: "lower"},
	{Name: "cluster.rpc_failed", Unit: "count", Better: "lower"},
	{Name: "cluster.forwards", Unit: "count", Better: "lower"},
	{Name: "cluster.remote_point_hits", Unit: "count", Better: "higher"},
	{Name: "cluster.replications", Unit: "count", Better: "lower"},
	{Name: "cluster.hop_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bench.accounted_frac", Unit: "frac", Better: "higher"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the repository root, found
// from either the root or the bench directory.
func loadBenchmarkFile() (*benchmarkFile, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &bf, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json: %w", lastErr)
}
