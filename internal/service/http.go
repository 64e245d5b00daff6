package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/network"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// maxUploadBytes bounds trace uploads (the binary codec is 5-10x denser
// than this, so the limit is generous).
const maxUploadBytes = 64 << 20

// AppInfo is one row of GET /v1/apps.
type AppInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// PlatformInfo is one row of GET /v1/platforms.
type PlatformInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// TraceInfo describes a stored trace (the POST /v1/traces response).
type TraceInfo struct {
	Digest  string `json:"digest"`
	Name    string `json:"name"`
	Flavor  string `json:"flavor"`
	Ranks   int    `json:"ranks"`
	Records int    `json:"records"`
}

// Health is the GET /healthz response. Status is "ok" while serving
// and "draining" once shutdown began; the cluster fields appear only
// when the daemon is a cluster member.
type Health struct {
	Status    string  `json:"status"`
	UptimeSec float64 `json:"uptime_sec"`
	Workers   int     `json:"workers"`
	Draining  bool    `json:"draining,omitempty"`
	// Node is the operator-chosen node name (-node-id), NodeID its
	// 160-bit cluster identity, ClusterPeers the size of its member set.
	Node         string `json:"node,omitempty"`
	NodeID       string `json:"node_id,omitempty"`
	ClusterPeers int    `json:"cluster_peers,omitempty"`
}

// NewHandler builds the daemon's HTTP API around a manager. The routes:
//
//	GET    /healthz              liveness + uptime
//	GET    /metrics              Prometheus text format (engine, service,
//	                             scenario-stage, and replay/PDES families)
//	GET    /v1/debug/telemetry   the same instruments as deterministic JSON
//	GET    /v1/apps              application catalog
//	GET    /v1/platforms         platform preset catalog
//	POST   /v1/traces            upload a trace (text or binary codec)
//	GET    /v1/traces            list stored trace digests
//	GET    /v1/traces/{digest}   download a stored trace (binary codec)
//	DELETE /v1/traces/{digest}   delete a stored trace (drops its
//	                             compiled programs too)
//	POST   /v1/scenarios         generic declarative study:    } sync by
//	                             workload × platform × axes    } default;
//	POST   /v1/analyze           three-flavour analysis        } ?async=1
//	POST   /v1/whatif            per-buffer idealization       } returns
//	POST   /v1/sweep/bandwidth   bandwidth sweep               } 202
//	POST   /v1/sweep/mapping     placement sweep               }
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         poll one job (result inlined when done)
//	DELETE /v1/jobs/{id}         cancel one job
//
// The four per-kind POST endpoints are adapters over the scenario path
// POST /v1/scenarios takes (request.go): same keys, caches, forwarding,
// and planner, with their request and response formats unchanged.
//
// POST /v1/scenarios additionally streams: with Accept:
// application/x-ndjson (and without ?async=1, which takes precedence),
// the response is NDJSON frames — header, one frame per grid point in
// deterministic order, then done — whose concatenation is byte-identical
// to the batch JSON body. See stream.go for the frame protocol.
//
// All submitting endpoints answer 429 with Retry-After when the
// manager's admission queue is full; queue depth and rejection counts
// are visible on /metrics.
func NewHandler(m *Manager) http.Handler {
	publishMetrics(m)
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := Health{
			Status:    "ok",
			UptimeSec: m.UptimeSec(),
			Workers:   m.eng.Workers(),
		}
		if m.Draining() {
			h.Status = "draining"
			h.Draining = true
		}
		if n := m.Cluster(); n != nil {
			h.Node = n.Name()
			h.NodeID = n.Self().ID.String()
			h.ClusterPeers = n.Table().Len()
		}
		writeJSON(w, http.StatusOK, h)
	})
	mux.Handle("GET /metrics", telemetry.Handler(telemetry.Default()))

	mux.HandleFunc("GET /v1/debug/telemetry", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, telemetry.Default().Snapshot())
	})

	mux.HandleFunc("GET /v1/apps", func(w http.ResponseWriter, r *http.Request) {
		// The registry's descriptions are rank-independent; 16 is only a
		// valid instantiation size.
		list := make([]AppInfo, 0, len(apps.Names))
		for _, e := range apps.All(16) {
			list = append(list, AppInfo{Name: e.App.Name, Description: e.Description})
		}
		writeJSON(w, http.StatusOK, list)
	})

	mux.HandleFunc("GET /v1/platforms", func(w http.ResponseWriter, r *http.Request) {
		desc := network.PresetDescriptions()
		list := make([]PlatformInfo, 0, len(desc))
		for _, name := range network.PresetNames() {
			list = append(list, PlatformInfo{Name: name, Description: desc[name]})
		}
		writeJSON(w, http.StatusOK, list)
	})

	mux.HandleFunc("POST /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
		if err != nil {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("read upload: %w", err))
			return
		}
		tr, err := trace.ReadAny(bytes.NewReader(body))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		digest, err := m.store.PutTrace(tr)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrStoreFull) {
				status = http.StatusInsufficientStorage
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusCreated, traceInfo(digest, tr))
	})

	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.store.TraceDigests())
	})

	mux.HandleFunc("GET /v1/traces/{digest}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.store.GetTrace(r.PathValue("digest"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := trace.WriteBinary(w, st.Trace()); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	})

	mux.HandleFunc("DELETE /v1/traces/{digest}", func(w http.ResponseWriter, r *http.Request) {
		digest := r.PathValue("digest")
		if !trace.ValidDigest(digest) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("malformed trace digest %q", digest))
			return
		}
		found, err := m.store.DeleteTrace(digest)
		if err != nil {
			// The digest parsed; a delete that still fails is a disk-tier
			// fault, the server's problem, not the client's.
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if !found {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown trace %s", digest))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": digest})
	})

	submit := func(w http.ResponseWriter, r *http.Request, req Request) {
		job, err := m.Submit(req)
		if rejected(m, w, r, err) {
			return
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		logSubmitted(m, r, job)
		if async, _ := strconv.ParseBool(r.URL.Query().Get("async")); async {
			writeJSON(w, http.StatusAccepted, job.Status(false))
			return
		}
		payload, err := job.Wait(r.Context())
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		// The payload is served verbatim: identical requests receive
		// byte-identical responses, cached or not.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Job-Id", job.ID())
		w.Header().Set("X-Cache", cacheHeader(job))
		w.WriteHeader(http.StatusOK)
		w.Write(payload)
	}

	mux.HandleFunc("POST /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		var req ScenarioRequest
		if !decodeRequest(w, r, &req) {
			return
		}
		// ?async=1 wins over the Accept header: an async submission has
		// nothing to stream yet.
		if async, _ := strconv.ParseBool(r.URL.Query().Get("async")); !async && wantsNDJSON(r) {
			streamScenario(m, w, r, req)
			return
		}
		submit(w, r, req)
	})
	mux.HandleFunc("POST /v1/analyze", submitBody[AnalyzeRequest](submit))
	mux.HandleFunc("POST /v1/whatif", submitBody[WhatIfRequest](submit))
	mux.HandleFunc("POST /v1/sweep/bandwidth", submitBody[BandwidthSweepRequest](submit))
	mux.HandleFunc("POST /v1/sweep/mapping", submitBody[MappingSweepRequest](submit))

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := m.Jobs()
		list := make([]Status, 0, len(jobs))
		for _, j := range jobs {
			list = append(list, j.Status(false))
		}
		writeJSON(w, http.StatusOK, list)
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, j.Status(true))
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, ok := m.Cancel(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
			return
		}
		writeJSON(w, http.StatusOK, j.Status(false))
	})

	// Cluster members additionally serve the peer RPC endpoint and a
	// status document:
	//
	//	POST /v1/cluster/rpc      the DHT RPC envelope (peers only)
	//	GET  /v1/cluster/status   node identity, peers, stored keys
	if n := m.Cluster(); n != nil {
		mux.Handle("POST "+cluster.RPCPath, cluster.ServeRPC(n))
		mux.HandleFunc("GET /v1/cluster/status", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, n.Status())
		})
	}

	return instrument(mux, m.log)
}

// submitBody is the handler of a per-kind endpoint: decode its body
// strictly, then submit it.
func submitBody[R Request](submit func(http.ResponseWriter, *http.Request, Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		if decodeRequest(w, r, &req) {
			submit(w, r, req)
		}
	}
}

// rejected answers a refused admission — 429 while the queue is full,
// 503 while draining, both with Retry-After — and reports whether err
// was one.
func rejected(m *Manager, w http.ResponseWriter, r *http.Request, err error) bool {
	if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrDraining) {
		return false
	}
	m.log.LogAttrs(r.Context(), slog.LevelWarn, "submission rejected",
		slog.String("request_id", RequestID(r.Context())),
		slog.String("error", err.Error()))
	status := http.StatusTooManyRequests
	if errors.Is(err, ErrDraining) {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, status, err)
	return true
}

// logSubmitted ties the request's ID to the job serving it.
func logSubmitted(m *Manager, r *http.Request, j *Job) {
	m.log.LogAttrs(r.Context(), slog.LevelInfo, "job submitted",
		slog.String("request_id", RequestID(r.Context())),
		slog.String("job_id", j.ID()),
		slog.String("kind", j.Kind()),
		slog.String("spec_digest", j.Key()),
		slog.Bool("cached", j.Cached()))
}

// wantsNDJSON reports whether the request's Accept header selects the
// streaming scenario response.
func wantsNDJSON(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mt) == NDJSONContentType {
			return true
		}
	}
	return false
}

func cacheHeader(j *Job) string {
	if j.Cached() {
		return "hit"
	}
	return "miss"
}

func traceInfo(digest string, tr *trace.Trace) TraceInfo {
	return TraceInfo{
		Digest:  digest,
		Name:    tr.Name,
		Flavor:  tr.Flavor,
		Ranks:   tr.NumRanks,
		Records: tr.Stats().Records,
	}
}

// decodeRequest parses a JSON request body strictly; unknown fields are
// errors so typos (e.g. "bandwidths" for "bandwidths_mbps") don't silently
// select defaults.
func decodeRequest(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
