package service

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Request-path instruments. The histogram vecs are labelled by mux
// pattern ("POST /v1/scenarios"), so every route gets its own latency
// distribution without per-path registration.
var (
	mHTTPRequests = telemetry.Default().CounterVec("http_requests_total", "HTTP requests served, by route pattern and status code", "endpoint", "code")
	mHTTPSeconds  = telemetry.Default().HistogramVec("http_request_seconds", "HTTP request latency, by route pattern", 1e-9, "endpoint")
	mQueueWait    = telemetry.Default().Histogram("service_queue_wait_seconds", "delay between job admission and execution-slot acquisition", 1e-9)
	mStoreCorrupt = telemetry.Default().Counter("store_corrupt_artifacts_total", "disk-tier artifacts that failed digest verification and were quarantined (*.corrupt)")
)

// Manager-state instruments: gauges and counters that read the live
// manager at scrape time instead of being incremented inline. Funcs are
// registered once per process and indirect through activeManager — the
// handler most recently built, i.e. the one the daemon runs — so tests
// building many handlers neither panic nor double-register.
var (
	metricsOnce   sync.Once
	activeManager atomic.Pointer[Manager]
)

func publishMetrics(m *Manager) {
	activeManager.Store(m)
	metricsOnce.Do(func() {
		reg := telemetry.Default()
		read := func(get func(*Manager) float64) func() float64 {
			return func() float64 {
				mgr := activeManager.Load()
				if mgr == nil {
					return 0
				}
				return get(mgr)
			}
		}
		reg.CounterFunc("service_result_cache_hits_total", "spec-level result cache hits", read(func(m *Manager) float64 {
			h, _ := m.cache.Counters()
			return float64(h)
		}))
		reg.CounterFunc("service_result_cache_misses_total", "spec-level result cache misses", read(func(m *Manager) float64 {
			_, miss := m.cache.Counters()
			return float64(miss)
		}))
		reg.CounterFunc("service_point_cache_hits_total", "point-level scenario cache hits (partial-grid resume)", read(func(m *Manager) float64 {
			h, _ := m.pointCounters()
			return float64(h)
		}))
		reg.CounterFunc("service_point_cache_misses_total", "point-level scenario cache misses", read(func(m *Manager) float64 {
			_, miss := m.pointCounters()
			return float64(miss)
		}))
		reg.CounterFunc("service_deduped_total", "submissions attached to an identical in-flight job (singleflight)", read(func(m *Manager) float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.deduped)
		}))
		reg.CounterFunc("service_rejected_total", "submissions refused with queue-full (HTTP 429)", read(func(m *Manager) float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.rejected)
		}))
		reg.GaugeFunc("service_queue_depth", "jobs admitted but waiting for an execution slot", read(func(m *Manager) float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.queued)
		}))
		reg.GaugeFunc("service_stored_traces", "traces resident in the artifact store", read(func(m *Manager) float64 {
			traces, _ := m.store.Counts()
			return float64(traces)
		}))
		reg.GaugeFunc("service_stored_platforms", "platforms resident in the artifact store", read(func(m *Manager) float64 {
			_, platforms := m.store.Counts()
			return float64(platforms)
		}))
		reg.GaugeFunc("service_uptime_seconds", "seconds since the serving manager started", read(func(m *Manager) float64 {
			return m.UptimeSec()
		}))
	})
}
