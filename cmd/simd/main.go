// Command simd is the simulation-as-a-service daemon: the trace-replay
// framework behind cmd/experiments and friends, exposed as a long-lived
// HTTP JSON API with a content-addressed artifact store, singleflight
// dedupe of identical in-flight requests, and an LRU result cache —
// identical requests hit the cache instead of re-simulating, concurrent
// distinct requests saturate the worker pool.
//
// Examples:
//
//	simd -addr :8080 -workers 8 -store-dir /var/lib/simd
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/v1/analyze -d '{"app":"cg","ranks":16}'
//	curl -X POST localhost:8080/v1/whatif -d '{"app":"sweep3d","ranks":16}'
//	curl -N -H 'Accept: application/x-ndjson' -X POST \
//	  localhost:8080/v1/scenarios -d '{"app":"cg","ranks":16,"output":"finish"}'
//	curl 'localhost:8080/v1/jobs'
//
// See the README's "Running as a service" section for the full API.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/platformflag"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache", service.DefaultCacheEntries, "result cache capacity in entries (0 or negative disables)")
	queueDepth := flag.Int("queue", service.DefaultQueueDepth, "admission queue bound: jobs beyond it are rejected with 429 (0 or negative = unbounded)")
	pointCache := flag.Int("point-cache", service.DefaultPointCacheEntries, "point-level scenario cache capacity — overlapping grids resume each other (0 or negative disables)")
	storeDir := flag.String("store-dir", "", "disk tier for the content-addressed artifact store (empty = memory only)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling; leave off in untrusted networks)")
	scenarioPath := flag.String("scenario", "", "one-shot mode: run a scenario spec (JSON, the POST /v1/scenarios schema) against -store-dir, stream the point table, and exit without serving")
	scenarioJSON := flag.Bool("scenario-json", false, "with -scenario, print the raw result JSON instead of the streamed point table")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT, how long to wait for in-flight jobs and streams to finish before closing the server")
	logFormat := flag.String("log-format", "text", "structured log format: text|json")
	clusterListen := flag.String("cluster-listen", "", "enable clustering: listen address of the peer RPC endpoint (e.g. 127.0.0.1:9201); peers dial http://<this address>")
	nodeID := flag.String("node-id", "", "operator-chosen cluster node name (default: the advertised cluster address); the node's DHT identity is derived from it")
	join := flag.String("join", "", "comma-separated cluster addresses of existing members to bootstrap from (e.g. http://127.0.0.1:9201,http://127.0.0.1:9202)")
	tm := platformflag.RegisterTimings(flag.CommandLine)
	flag.Parse()

	var handlerOpts slog.Handler
	switch *logFormat {
	case "text":
		handlerOpts = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handlerOpts = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "simd: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handlerOpts)
	slog.SetDefault(logger)

	store, err := service.NewStore(*storeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		os.Exit(1)
	}
	if *scenarioPath != "" {
		// One-shot: the same spec POST /v1/scenarios accepts, executed on
		// this process's store and engine. The default table streams —
		// each point prints as it finishes; -scenario-json prints the
		// batch JSON instead. -timings appends the per-stage telemetry
		// summary to stderr.
		opts := service.Options{Engine: engine.New(*workers), Store: store, Logger: logger}
		if err := service.RunScenarioFile(context.Background(), *scenarioPath, opts, *scenarioJSON, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "simd: %v\n", err)
			os.Exit(1)
		}
		tm.MaybeDump(os.Stderr)
		return
	}
	// The flags' 0 means "disabled"/"unbounded"; Options reserves 0 for
	// "default" so the zero value stays usable as a library.
	entries := *cacheEntries
	if entries <= 0 {
		entries = -1
	}
	queue := *queueDepth
	if queue <= 0 {
		queue = -1
	}
	points := *pointCache
	if points <= 0 {
		points = -1
	}
	eng := engine.New(*workers)

	// Clustering: the node's RPC endpoint gets its own listener (peer
	// traffic stays off the client port, though the API server mounts
	// /v1/cluster/ too), and outbound RPCs ride the HTTP transport with
	// a modest retry budget.
	var node *cluster.Node
	if *clusterListen != "" {
		advertise := clusterAdvertise(*clusterListen)
		name := *nodeID
		if name == "" {
			name = advertise
		}
		var err error
		node, err = cluster.NewNode(cluster.Config{
			Name:      name,
			Addr:      advertise,
			Transport: &client.ClusterTransport{Retry: client.RetryPolicy{Retries: 2}},
			Logger:    logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "simd: %v\n", err)
			os.Exit(1)
		}
	}

	mgr, err := service.NewManager(service.Options{
		Engine:            eng,
		Store:             store,
		CacheEntries:      entries,
		QueueDepth:        queue,
		PointCacheEntries: points,
		Logger:            logger,
		Cluster:           node,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		os.Exit(1)
	}

	handler := service.NewHandler(mgr)
	if *pprofOn {
		// Explicit registrations on a private mux: the daemon never
		// serves http.DefaultServeMux, so the import's side effects
		// alone would expose nothing.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Header and body reads are bounded so a stalled or malicious
		// client cannot pin a connection; idle keep-alives are reaped.
		// No WriteTimeout: scenario streams legitimately write for as
		// long as the grid takes, and a hung client is already bounded
		// by the job's context (closing the connection cancels it).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The cluster RPC listener and the join loop. Joining retries: in a
	// cluster booting all at once, the bootstrap peers may come up after
	// this node does.
	var clusterSrv *http.Server
	if node != nil {
		cmux := http.NewServeMux()
		cmux.Handle("POST "+cluster.RPCPath, cluster.ServeRPC(node))
		clusterSrv = &http.Server{
			Addr:              *clusterListen,
			Handler:           cmux,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       60 * time.Second,
			IdleTimeout:       120 * time.Second,
		}
		go func() {
			logger.Info("cluster listening",
				slog.String("addr", *clusterListen),
				slog.String("node", node.Name()),
				slog.String("id", node.Self().ID.String()))
			if err := clusterSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("cluster listener failed", slog.String("error", err.Error()))
			}
		}()
		go func() {
			peers := splitJoin(*join)
			for attempt := 0; ; attempt++ {
				err := node.Join(ctx, peers...)
				if err == nil {
					logger.Info("cluster joined", slog.Int("peers", node.Table().Len()))
					return
				}
				if attempt >= 9 || ctx.Err() != nil {
					logger.Warn("cluster join failed", slog.String("error", err.Error()))
					return
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Second):
				}
			}
		}()
	}
	go func() {
		<-ctx.Done()
		// Graceful drain, in two phases. First the manager stops
		// admitting new computations — fresh submissions get 503 +
		// Retry-After while the listener is still up, so clients see a
		// clean backoff signal instead of a connection reset — and every
		// in-flight job and stream runs to completion. Only then does
		// the HTTP server close: accepted work is never truncated.
		logger.Info("draining: new submissions get 503")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		flushed, err := mgr.Drain(drainCtx)
		cancel()
		if err != nil {
			logger.Warn("drain timed out; shutting down anyway",
				slog.Int("inflight_at_drain", flushed),
				slog.String("error", err.Error()))
		} else {
			logger.Info("drained", slog.Int("flushed_jobs", flushed))
		}
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
		if clusterSrv != nil {
			// Peer RPCs close last: Drain already marked the node draining,
			// so peers spent the whole drain window aging this node out of
			// their tables.
			clusterSrv.Shutdown(shutdownCtx)
		}
	}()

	tier := "memory"
	if *storeDir != "" {
		tier = *storeDir
	}
	logger.Info("listening",
		slog.String("addr", *addr),
		slog.Int("workers", eng.Workers()),
		slog.Int("cache_entries", *cacheEntries),
		slog.String("store", tier))
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		os.Exit(1)
	}
}

// clusterAdvertise turns a -cluster-listen address into the base URL
// peers dial. A bare ":port" advertises the loopback host — fine for
// single-machine clusters and CI; multi-host deployments pass an
// explicit host:port.
func clusterAdvertise(listen string) string {
	if strings.HasPrefix(listen, ":") {
		return "http://127.0.0.1" + listen
	}
	return "http://" + listen
}

// splitJoin parses the -join flag's comma-separated peer list.
func splitJoin(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
