package service

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/tracer"
)

// Every request is served as a scenario. POST /v1/scenarios bodies are
// scenario specs already; the four per-kind bodies below are *adapters*:
// translate turns the wire body into the ScenarioRequest it asks for
// plus a render function that builds the endpoint's published wire body
// from the scenario result. Everything between — validation, the spec
// digest key, singleflight, caching, admission, cluster forwarding, and
// point-cache resume — is the one path in manager.go.

// Request kinds, used as job labels and as the suffix that keeps a
// per-kind reply's cache entry apart from its scenario's.
const (
	KindAnalyze        = "analyze"
	KindWhatIf         = "whatif"
	KindBandwidthSweep = "sweep-bandwidth"
	KindMappingSweep   = "sweep-mapping"
)

// Request limits: the daemon refuses work whose cost is unbounded by
// construction rather than trusting clients.
const (
	maxRanks       = 1024
	maxSweepPoints = 1024
)

// PlatformSpec selects the platform of a request. At most one selector
// may be set; an empty (or absent) spec means the app-calibrated testbed,
// matching the CLIs' default.
type PlatformSpec struct {
	// Preset names a platform preset (see GET /v1/platforms).
	Preset string `json:"preset,omitempty"`
	// Digest references a platform previously stored in the artifact
	// store (e.g. via an earlier request's response).
	Digest string `json:"digest,omitempty"`
	// Inline embeds a platform JSON document (hierarchical or flat
	// schema, as accepted by every CLI's -platform flag).
	Inline json.RawMessage `json:"inline,omitempty"`
}

// Request is one unit of submittable work. The concrete types below and
// ScenarioRequest are the wire request bodies of the daemon's POST
// endpoints.
type Request interface {
	// translate validates what is particular to the wire body and
	// returns the task's kind, the scenario it asks for, and how its
	// reply renders from the scenario result; prepare does the rest.
	translate(m *Manager) (*task, error)
}

// tracerConfig lifts a request's chunk count to the full tracer
// configuration (0 keeps the paper's default).
func tracerConfig(chunks int) (tracer.Config, error) {
	cfg := tracer.DefaultConfig()
	if chunks < 0 {
		return cfg, fmt.Errorf("service: chunks=%d, must be positive", chunks)
	}
	if chunks > 0 {
		cfg.Chunks = chunks
	}
	return cfg, nil
}

// appEntry validates an (app, ranks) pair against the registry.
func appEntry(app string, ranks int) (core.App, error) {
	if ranks <= 0 || ranks > maxRanks {
		return core.App{}, fmt.Errorf("service: ranks=%d, must be in [1, %d]", ranks, maxRanks)
	}
	entry, ok := apps.ByName(app, ranks)
	if !ok {
		return core.App{}, fmt.Errorf("service: unknown app %q (known: %v)", app, apps.Names)
	}
	return entry.App, nil
}

// resolvePlatform turns a spec into a validated platform sized for ranks,
// with a non-zero degradations block replacing its own fault-injection
// spec, and registers it in the artifact store, so the platform digest a
// degraded result reports resolves too. It returns the platform and
// the digest it is registered under.
func (m *Manager) resolvePlatform(spec *PlatformSpec, degradations *faults.Spec, app string, ranks int) (network.Platform, string, error) {
	var plat network.Platform
	selectors := 0
	if spec != nil {
		if spec.Preset != "" {
			selectors++
		}
		if spec.Digest != "" {
			selectors++
		}
		if len(spec.Inline) > 0 {
			selectors++
		}
	}
	var err error
	switch {
	case selectors > 1:
		err = fmt.Errorf("service: platform spec sets %d of preset/digest/inline, want at most one", selectors)
	case spec == nil || selectors == 0:
		plat = network.TestbedFor(app, ranks)
	case spec.Preset != "":
		plat, err = network.PlatformPreset(spec.Preset, ranks)
	case spec.Digest != "":
		plat, err = m.store.GetPlatform(spec.Digest)
	default: // inline
		plat, err = network.ReadAnyPlatform(bytes.NewReader(spec.Inline))
	}
	if err != nil {
		return network.Platform{}, "", err
	}
	if plat.Processors < ranks {
		return network.Platform{}, "", fmt.Errorf("service: platform has %d processors, request needs %d", plat.Processors, ranks)
	}
	if degradations != nil && !degradations.IsZero() {
		plat = plat.WithDegradations(*degradations)
	}
	digest, err := m.store.PutPlatform(plat)
	if err != nil {
		return network.Platform{}, "", err
	}
	return plat, digest, nil
}

// DecodeStrict decodes data as exactly one JSON value into v, the one
// decoder of request bodies and spec files. Unknown fields are errors,
// so typos (e.g. "bandwidths" for "bandwidths_mbps") don't silently
// select defaults, and so is anything but whitespace after the value,
// so a body is one request: the body memo keys its raw bytes.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("invalid character %q after top-level value", rest[0])
	}
	return nil
}

// decoder turns a raw request body into its Request.
type decoder func(body []byte) (Request, error)

// decodeAs decodes a request body of type R strictly.
func decodeAs[R Request](body []byte) (Request, error) {
	var req R
	if err := DecodeStrict(body, &req); err != nil {
		return nil, fmt.Errorf("parse request: %w", err)
	}
	return req, nil
}

// ---------------------------------------------------------------------------
// Analyze

// AnalyzeRequest runs the full three-flavour analysis of one registry
// application on a platform (the POST /v1/analyze body).
type AnalyzeRequest struct {
	App      string        `json:"app"`
	Ranks    int           `json:"ranks"`
	Chunks   int           `json:"chunks,omitempty"`
	Platform *PlatformSpec `json:"platform,omitempty"`
}

// translate: a zero-axis report-output scenario is exactly one full
// analysis; its single point carries the wire report.
func (r AnalyzeRequest) translate(*Manager) (*task, error) {
	return &task{
		kind: KindAnalyze,
		req: ScenarioRequest{
			App: r.App, Ranks: r.Ranks, Chunks: r.Chunks, Platform: r.Platform,
			Output: string(core.OutputReport),
		},
		render: func(res *core.ScenarioResult) any { return res.Points[0].Report },
	}, nil
}

// ---------------------------------------------------------------------------
// What-if

// WhatIfRequest ranks one application's buffers by restructuring
// potential (the POST /v1/whatif body).
type WhatIfRequest struct {
	App      string        `json:"app"`
	Ranks    int           `json:"ranks"`
	Chunks   int           `json:"chunks,omitempty"`
	Platform *PlatformSpec `json:"platform,omitempty"`
}

func (r WhatIfRequest) translate(*Manager) (*task, error) {
	return &task{
		kind: KindWhatIf,
		req: ScenarioRequest{
			App: r.App, Ranks: r.Ranks, Chunks: r.Chunks, Platform: r.Platform,
			Output: string(core.OutputWhatIf),
		},
		render: func(res *core.ScenarioResult) any { return res.Points[0].WhatIf },
	}, nil
}

// ---------------------------------------------------------------------------
// Bandwidth sweep

// BandwidthSweepRequest replays one flavour of an application — or one
// uploaded trace — across interconnect bandwidths (the POST
// /v1/sweep/bandwidth body). Exactly one of App or Trace must be set.
type BandwidthSweepRequest struct {
	// App mode: trace the registry app and sweep the given flavour.
	App    string `json:"app,omitempty"`
	Ranks  int    `json:"ranks,omitempty"`
	Chunks int    `json:"chunks,omitempty"`
	// Flavor is base, overlap-real (default), or overlap-ideal.
	Flavor string `json:"flavor,omitempty"`
	// Trace mode: sweep a trace previously uploaded to POST /v1/traces,
	// referenced by digest.
	Trace string `json:"trace,omitempty"`

	Platform   *PlatformSpec `json:"platform,omitempty"`
	Bandwidths []float64     `json:"bandwidths_mbps"`
}

// translate: a one-flavour finish scenario over a bandwidth axis. In
// trace mode the stored trace's own flavour is the only one.
func (r BandwidthSweepRequest) translate(*Manager) (*task, error) {
	if len(r.Bandwidths) == 0 {
		return nil, fmt.Errorf("service: bandwidth sweep needs bandwidths_mbps")
	}
	sr := ScenarioRequest{
		App: r.App, Ranks: r.Ranks, Chunks: r.Chunks, Trace: r.Trace, Platform: r.Platform,
		Axes:   []core.Axis{core.BandwidthAxis(r.Bandwidths...)},
		Output: string(core.OutputFinish),
	}
	switch {
	case r.Trace != "" && (r.Flavor != "" || r.Ranks != 0 || r.Chunks != 0):
		// A stored trace is already one flavour at one chunking on fixed
		// ranks; accepting the app-mode knobs and ignoring them would
		// silently serve a different sweep than the client asked for.
		return nil, fmt.Errorf("service: trace-mode bandwidth sweep does not take flavor, ranks, or chunks")
	case r.Trace == "" && r.Flavor == "":
		sr.Flavors = []string{string(core.FlavorReal)}
	case r.Trace == "":
		sr.Flavors = []string{r.Flavor}
	}
	return &task{
		kind: KindBandwidthSweep,
		req:  sr,
		render: func(res *core.ScenarioResult) any {
			f := res.Points[0].Flavors[0]
			points := make([]core.WireSweepPoint, len(res.Points))
			for i, pt := range res.Points {
				points[i] = core.WireSweepPoint{BandwidthMBps: r.Bandwidths[i], FinishSec: pt.Flavors[0].FinishSec}
			}
			return &core.WireBandwidthSweep{
				App:            res.App,
				Flavor:         string(f.Flavor),
				TraceDigest:    f.TraceDigest,
				PlatformDigest: res.PlatformDigest,
				Points:         points,
			}
		},
	}, nil
}

// ---------------------------------------------------------------------------
// Mapping sweep

// MappingSweepRequest replays one application under several rank→node
// placements on a (typically hierarchical) platform (the POST
// /v1/sweep/mapping body).
type MappingSweepRequest struct {
	App      string        `json:"app"`
	Ranks    int           `json:"ranks"`
	Chunks   int           `json:"chunks,omitempty"`
	Platform *PlatformSpec `json:"platform,omitempty"`
	// Mappings lists placements in their CLI spelling: "block", "rr", or
	// an explicit node list like "0,0,1,1". Default: block and rr.
	Mappings []string `json:"mappings,omitempty"`
}

// translate: a base/overlap-real traffic scenario over a mapping axis.
// The axis carries each placement's materialized rank→node table, not
// its spelling: "block" and its explicit node list are one placement and
// share one key. Points are labelled with the request's own spellings
// (a cached reply keeps its first submitter's), and the scenario keeps
// the client's platform selector, as every request does (a peer gets a
// digest selector as the platform's document, task.peerRequest). The
// platform resolved here is the scenario's: spec does not resolve it
// again.
func (r MappingSweepRequest) translate(m *Manager) (*task, error) {
	if _, err := appEntry(r.App, r.Ranks); err != nil {
		return nil, err
	}
	specs := r.Mappings
	if len(specs) == 0 {
		specs = []string{"block", "rr"}
	}
	if len(specs) > maxSweepPoints {
		return nil, fmt.Errorf("service: %d mappings, limit %d", len(specs), maxSweepPoints)
	}
	plat, platform, err := m.resolvePlatform(r.Platform, nil, r.App, r.Ranks)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(specs))
	tables := make([]string, len(specs))
	for i, s := range specs {
		mp, err := network.ParseMapping(s)
		if err != nil {
			return nil, err
		}
		mapped := plat.WithMapping(mp)
		if err := mapped.Validate(); err != nil {
			return nil, fmt.Errorf("service: mapping %q: %w", s, err)
		}
		labels[i] = mp.String()
		tables[i] = network.ExplicitMapping(mapped.NodeTable()).String()
	}
	return &task{
		kind:     KindMappingSweep,
		plat:     &plat,
		platform: platform,
		req: ScenarioRequest{
			App: r.App, Ranks: r.Ranks, Chunks: r.Chunks, Platform: r.Platform,
			Flavors: []string{string(core.FlavorBase), string(core.FlavorReal)},
			Axes:    []core.Axis{core.MappingAxis(tables...)},
			Output:  string(core.OutputTraffic),
		},
		render: func(res *core.ScenarioResult) any {
			points := make([]core.WireMappingPoint, len(res.Points))
			for i, pt := range res.Points {
				base, real := pt.Flavors[0], pt.Flavors[1]
				points[i] = core.WireMappingPoint{
					Mapping:       labels[i],
					BaseFinishSec: base.FinishSec,
					RealFinishSec: real.FinishSec,
					SpeedupReal:   metrics.Speedup(base.FinishSec, real.FinishSec),
					IntraBytes:    base.Traffic.IntraBytes,
					InterBytes:    base.Traffic.InterBytes,
				}
			}
			return &core.WireMappingSweep{
				App:            res.App,
				Ranks:          res.Ranks,
				PlatformDigest: res.PlatformDigest,
				Points:         points,
			}
		},
	}, nil
}
