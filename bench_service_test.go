// Service benchmarks: the HTTP serving path end to end — client →
// httptest server → handler → job manager → engine — measuring what the
// caching layer buys. ns/op does not transfer across machines, so compare
// runs made on one host; the committed end-to-end numbers for the same
// handler are the cold-specs and cached-mix workloads of
// bench/baseline.json (bash bench/run.sh).
//
//	go test -run '^$' -bench BenchmarkService -benchtime=5x .
package repro

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/service/client"
)

// benchStack builds a full serving stack for benchmarks.
func benchStack(b *testing.B) (*service.Manager, *client.Client, func()) {
	b.Helper()
	mgr, err := service.NewManager(service.Options{Engine: engine.New(0)})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(mgr))
	return mgr, client.New(srv.URL, srv.Client()), srv.Close
}

// BenchmarkServiceAnalyze compares the cold serving path (trace +
// simulate + marshal) against the cached one (LRU hit, byte-identical
// response). The ratio is the headline number of the service layer.
func BenchmarkServiceAnalyze(b *testing.B) {
	req := service.AnalyzeRequest{App: "cg", Ranks: benchRanks}
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, cl, done := benchStack(b)
			b.StartTimer()
			if _, err := cl.AnalyzeRaw(ctx, req); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			done()
			b.StartTimer()
		}
	})

	b.Run("cached", func(b *testing.B) {
		_, cl, done := benchStack(b)
		defer done()
		if _, err := cl.AnalyzeRaw(ctx, req); err != nil {
			b.Fatal(err) // prime the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.AnalyzeRaw(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceLoad is the load generator: parallel clients hammer one
// daemon with a mix of requests that is mostly cache-friendly (the
// serving regime the cache is for), reporting aggregate request
// throughput.
func BenchmarkServiceLoad(b *testing.B) {
	mgr, cl, done := benchStack(b)
	defer done()
	ctx := context.Background()
	// Prime the working set: three distinct analyses.
	reqs := []service.AnalyzeRequest{
		{App: "cg", Ranks: benchRanks},
		{App: "bt", Ranks: benchRanks},
		{App: "sweep3d", Ranks: benchRanks},
	}
	for _, r := range reqs {
		if _, err := cl.AnalyzeRaw(ctx, r); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := cl.AnalyzeRaw(ctx, reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	met := mgr.MetricsSnapshot()
	b.ReportMetric(float64(met.CacheHits), "cache_hits")
	b.ReportMetric(float64(met.CacheMisses), "cache_misses")
}
