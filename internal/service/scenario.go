package service

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/network"
)

// KindScenario labels generic scenario jobs (POST /v1/scenarios).
const KindScenario = "scenario"

// maxGridPoints bounds a scenario's expanded run grid — the same budget
// the per-kind sweeps enforce per request, applied to the cross product.
const maxGridPoints = maxSweepPoints

// ScenarioRequest is the generic declarative study request (the POST
// /v1/scenarios body): one workload, one platform, a flavor set, and a
// list of sweep axes whose cross product defines the run grid. It
// subsumes every per-kind endpoint — those are served as translations
// into this spec.
type ScenarioRequest struct {
	// App mode: trace the registry application on Ranks processes.
	App    string `json:"app,omitempty"`
	Ranks  int    `json:"ranks,omitempty"`
	Chunks int    `json:"chunks,omitempty"`
	// Trace mode: replay a stored trace, referenced by digest. Exactly
	// one of App or Trace must be set.
	Trace string `json:"trace,omitempty"`

	Platform *PlatformSpec `json:"platform,omitempty"`
	// Flavors lists the flavors measured per grid point for finish and
	// traffic outputs (default: base and overlap-real). Report and whatif
	// outputs replay flavor sets of their own and ignore it.
	Flavors []string `json:"flavors,omitempty"`
	// Axes are the sweep dimensions; their cross product is the grid.
	Axes []core.Axis `json:"axes,omitempty"`
	// Output is finish (default), traffic, whatif, or report.
	Output string `json:"output,omitempty"`
	// Degradations, when non-zero, replaces the resolved platform's own
	// fault-injection spec (see internal/faults) before the platform is
	// registered, so the reply's platform_digest names the degraded
	// platform; fault axes vary its fields per point. Omitted or zero
	// keeps the platform's own, which every preset leaves healthy.
	Degradations *faults.Spec `json:"degradations,omitempty"`
}

// translate: a scenario request is its own scenario, and its reply is
// the scenario result itself (a task with no render).
func (r ScenarioRequest) translate(*Manager) (*task, error) {
	return &task{kind: KindScenario, req: r}, nil
}

// spec resolves the wire request into the planner's scenario plus its
// canonical digest — the key every request is served under (prepare),
// batch or streamed, scenario or per-kind — and the digest of the
// platform it registered. A non-nil plat is the request's platform,
// already resolved and registered under the digest registered;
// otherwise spec resolves and registers it.
func (r ScenarioRequest) spec(m *Manager, plat *network.Platform, registered string) (sc *core.Scenario, key, platform string, err error) {
	if (r.App == "") == (r.Trace == "") {
		return nil, "", "", fmt.Errorf("service: scenario needs exactly one of app or trace")
	}
	sc = &core.Scenario{
		Axes:   r.Axes,
		Output: core.OutputKind(r.Output),
	}
	for _, f := range r.Flavors {
		sc.Flavors = append(sc.Flavors, core.Flavor(f))
	}
	for _, ax := range r.Axes {
		if ax.Len() == 0 {
			return nil, "", "", fmt.Errorf("service: scenario axis %q has no points", ax.Kind)
		}
	}

	name, ranks := r.App, r.Ranks
	if r.Trace != "" {
		if r.Ranks != 0 || r.Chunks != 0 {
			return nil, "", "", fmt.Errorf("service: trace-mode scenario does not take ranks or chunks")
		}
		st, err := m.store.GetTrace(r.Trace)
		if err != nil {
			return nil, "", "", err
		}
		sc.Trace = st
		name, ranks = st.Trace().Name, st.Trace().NumRanks
	} else {
		if _, err := appEntry(r.App, r.Ranks); err != nil {
			return nil, "", "", err
		}
		tCfg, err := tracerConfig(r.Chunks)
		if err != nil {
			return nil, "", "", err
		}
		app := r.App
		sc.Ranks = r.Ranks
		sc.Tracer = tCfg
		sc.Factory = func(ranks int) (core.App, error) { return appEntry(app, ranks) }
		// A ranks axis re-traces per point: every swept world size must
		// resolve in the registry (and respect the ranks cap) up front.
		for _, ax := range r.Axes {
			if ax.Kind == core.AxisRanks {
				for _, k := range ax.Counts {
					if _, err := appEntry(r.App, k); err != nil {
						return nil, "", "", err
					}
				}
			}
		}
	}
	if plat != nil {
		sc.Platform, platform = *plat, registered
	} else if sc.Platform, platform, err = m.resolvePlatform(r.Platform, r.Degradations, name, ranks); err != nil {
		return nil, "", "", err
	}
	sc.Traces = m.eng.Traces()

	// The canonical spec digest is the cache key: equivalent spellings of
	// one study (preset vs inline platform, "block" vs its node list)
	// collapse to one entry. Digest also validates the spec, an
	// overflowing grid included, so malformed scenarios fail here, before
	// any engine work.
	if key, err = sc.Digest(); err != nil {
		return nil, "", "", err
	}
	if n := sc.GridSize(); n > maxGridPoints {
		return nil, "", "", fmt.Errorf("service: scenario grid has %d points, limit %d", n, maxGridPoints)
	}
	// The replay-shards setting rides along as an execution hook: pure
	// scheduling, byte-identical results, never in the digest. The
	// point-level resume store, the manager's point LRU, is the other.
	sc.ReplayShards = m.replayShards
	if m.points != nil {
		sc.PointCache = scenarioPointStore{m.points}
	}
	return sc, key, platform, nil
}

// RunScenarioFile loads a scenario spec (the POST /v1/scenarios body,
// decoded by DecodeStrict) from path, executes it locally on a one-off
// manager built from opts, and writes the result to w — the shared
// implementation of every CLI's -scenario flag. By default the point
// table streams: each grid point prints the moment it (and its
// predecessors) finish, and the final output is byte-identical to the
// batch result's Format. asJSON writes the exact bytes the daemon would
// have served, plus a newline, instead. Both result caches are disabled,
// since a single local run has nothing to resume; a nil opts.Store
// serves app-mode scenarios only, while a disk-tier store lets specs
// reference stored trace digests.
func RunScenarioFile(ctx context.Context, path string, opts Options, asJSON bool, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("service: scenario file: %w", err)
	}
	var req ScenarioRequest
	if err := DecodeStrict(data, &req); err != nil {
		return fmt.Errorf("service: scenario file %s: %w", path, err)
	}
	opts.CacheEntries = -1
	opts.PointCacheEntries = -1
	mgr, err := NewManager(opts)
	if err != nil {
		return err
	}
	if asJSON {
		job, err := mgr.Submit(req)
		if err != nil {
			return err
		}
		payload, err := job.Wait(ctx)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", payload)
		return err
	}
	sc, _, _, err := req.spec(mgr, nil, "")
	if err != nil {
		return err
	}
	hdr, err := sc.Header()
	if err != nil {
		return err
	}
	p, err := core.NewScenarioPrinter(w, hdr)
	if err != nil {
		return err
	}
	_, err = core.RunScenarioStream(ctx, mgr.eng, *sc, p.Point)
	return err
}
