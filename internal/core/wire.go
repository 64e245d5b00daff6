package core

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// Wire marshalling: the JSON the service layer serves. A full Report
// carries three per-interval simulation results — far too heavy for an
// HTTP response — so the wire form is a deterministic summary:
// fixed field order (struct-driven), map-free except where encoding/json
// sorts keys, and NaN-free (the Alya unchunkable statistics become nulls).
// Determinism matters beyond taste: the result cache stores marshalled
// bytes and promises byte-identical responses for identical requests.

// WireFlavor summarizes one reconstructed execution flavour.
type WireFlavor struct {
	Flavor Flavor `json:"flavor"`
	// TraceDigest content-addresses the replayed trace (trace.Digest).
	TraceDigest string `json:"trace_digest"`
	// FinishSec is the simulated makespan.
	FinishSec float64 `json:"finish_sec"`
	// TotalWaitSec and TotalComputeSec aggregate the per-rank accounting.
	TotalWaitSec    float64 `json:"total_wait_sec"`
	TotalComputeSec float64 `json:"total_compute_sec"`
	// The traffic split by link class (all inter on flat platforms).
	IntraBytes int64 `json:"intra_bytes"`
	InterBytes int64 `json:"inter_bytes"`
	IntraMsgs  int   `json:"intra_msgs"`
	InterMsgs  int   `json:"inter_msgs"`
}

// WireProduction is ProductionStats with NaN-safe percentages: nil means
// "not measurable" (the unchunkable single-element case).
type WireProduction struct {
	FirstElemPct *float64 `json:"first_elem_pct"`
	QuarterPct   *float64 `json:"quarter_pct"`
	HalfPct      *float64 `json:"half_pct"`
	WholePct     *float64 `json:"whole_pct"`
	Intervals    int      `json:"intervals"`
	Chunkable    bool     `json:"chunkable"`
}

// WireConsumption is ConsumptionStats with NaN-safe percentages.
type WireConsumption struct {
	NothingPct *float64 `json:"nothing_pct"`
	QuarterPct *float64 `json:"quarter_pct"`
	HalfPct    *float64 `json:"half_pct"`
	Intervals  int      `json:"intervals"`
	Chunkable  bool     `json:"chunkable"`
}

// WirePatterns carries the Table II analysis. The per-buffer maps marshal
// deterministically because encoding/json sorts object keys.
type WirePatterns struct {
	Production     map[string]WireProduction  `json:"production"`
	Consumption    map[string]WireConsumption `json:"consumption"`
	AppProduction  WireProduction             `json:"app_production"`
	AppConsumption WireConsumption            `json:"app_consumption"`
}

// WireReport is the serving form of a Report.
type WireReport struct {
	App   string `json:"app"`
	Ranks int    `json:"ranks"`
	// PlatformDigest content-addresses the platform the report was
	// computed on; Platform is its human-readable one-liner.
	PlatformDigest string `json:"platform_digest"`
	Platform       string `json:"platform"`
	// Flavors holds base, overlap-real, overlap-ideal, in that order.
	Flavors      []WireFlavor  `json:"flavors"`
	SpeedupReal  float64       `json:"speedup_real"`
	SpeedupIdeal float64       `json:"speedup_ideal"`
	Patterns     *WirePatterns `json:"patterns,omitempty"`
}

// Wire converts the report to its serving form.
func (r *Report) Wire() (*WireReport, error) {
	ms := make([]replayed, len(flavors))
	for i, f := range flavors {
		res := r.ResultOf(f)
		ib, eb, im, em := res.TrafficSplit()
		ms[i] = replayed{digest: r.digests[i], sum: sim.Summary{
			FinishSec: res.FinishSec, TotalWaitSec: res.TotalWaitSec(), TotalComputeSec: res.TotalComputeSec(),
			IntraBytes: ib, InterBytes: eb, IntraMsgs: im, InterMsgs: em,
		}}
	}
	return wireReport(r.App, r.Ranks, r.Platform, ms, r.Patterns)
}

// wireReport is the one builder of a WireReport: the analysis of app on
// ranks processes on plat, from each flavour's trace digest and replay
// summary in report order, and the Table II analysis.
func wireReport(app string, ranks int, plat network.Platform, ms []replayed, pat *pattern.Analysis) (*WireReport, error) {
	pd, err := plat.Digest()
	if err != nil {
		return nil, fmt.Errorf("core: wire report: %w", err)
	}
	w := &WireReport{
		App:            app,
		Ranks:          ranks,
		PlatformDigest: pd,
		Platform:       plat.Describe(),
		SpeedupReal:    metrics.Speedup(ms[0].sum.FinishSec, ms[1].sum.FinishSec),
		SpeedupIdeal:   metrics.Speedup(ms[0].sum.FinishSec, ms[2].sum.FinishSec),
		Patterns:       wirePatterns(pat),
	}
	for i, f := range flavors {
		s := &ms[i].sum
		w.Flavors = append(w.Flavors, WireFlavor{
			Flavor:          f,
			TraceDigest:     ms[i].digest,
			FinishSec:       s.FinishSec,
			TotalWaitSec:    s.TotalWaitSec,
			TotalComputeSec: s.TotalComputeSec,
			IntraBytes:      s.IntraBytes,
			InterBytes:      s.InterBytes,
			IntraMsgs:       s.IntraMsgs,
			InterMsgs:       s.InterMsgs,
		})
	}
	return w, nil
}

// wirePct lifts a percentage to its nullable wire form: NaN (the
// unchunkable statistics) becomes nil instead of breaking json.Marshal.
func wirePct(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

func wireProduction(s pattern.ProductionStats) WireProduction {
	return WireProduction{
		FirstElemPct: wirePct(s.FirstElem),
		QuarterPct:   wirePct(s.Quarter),
		HalfPct:      wirePct(s.Half),
		WholePct:     wirePct(s.Whole),
		Intervals:    s.Intervals,
		Chunkable:    s.Chunkable,
	}
}

func wireConsumption(s pattern.ConsumptionStats) WireConsumption {
	return WireConsumption{
		NothingPct: wirePct(s.Nothing),
		QuarterPct: wirePct(s.Quarter),
		HalfPct:    wirePct(s.Half),
		Intervals:  s.Intervals,
		Chunkable:  s.Chunkable,
	}
}

func wirePatterns(an *pattern.Analysis) *WirePatterns {
	if an == nil {
		return nil
	}
	w := &WirePatterns{
		Production:     make(map[string]WireProduction, len(an.Production)),
		Consumption:    make(map[string]WireConsumption, len(an.Consumption)),
		AppProduction:  wireProduction(an.AppProduction),
		AppConsumption: wireConsumption(an.AppConsumption),
	}
	for name, s := range an.Production {
		w.Production[name] = wireProduction(*s)
	}
	for name, s := range an.Consumption {
		w.Consumption[name] = wireConsumption(*s)
	}
	return w
}

// WireWhatIf ranks the buffers of one application by restructuring
// potential: the what-if output's serving form.
type WireWhatIf struct {
	App            string `json:"app"`
	Ranks          int    `json:"ranks"`
	PlatformDigest string `json:"platform_digest"`
	// BaseFinishSec and RealFinishSec are the two reference makespans.
	BaseFinishSec float64 `json:"base_finish_sec"`
	RealFinishSec float64 `json:"real_finish_sec"`
	// Buffers is the ranking, best restructuring candidate first (by
	// GainOverReal).
	Buffers []BufferPotential `json:"buffers"`
}

// WireSweepPoint is one bandwidth-sweep measurement.
type WireSweepPoint struct {
	BandwidthMBps float64 `json:"bandwidth_mbps"`
	FinishSec     float64 `json:"finish_sec"`
}

// WireBandwidthSweep is the serving form of a bandwidth sweep over one
// flavour (or one uploaded trace, in which case Flavor echoes its stored
// flavour string).
type WireBandwidthSweep struct {
	App            string           `json:"app"`
	Flavor         string           `json:"flavor"`
	TraceDigest    string           `json:"trace_digest"`
	PlatformDigest string           `json:"platform_digest"`
	Points         []WireSweepPoint `json:"points"`
}

// WireMappingPoint is one placement measurement with the mapping in its
// CLI spelling.
type WireMappingPoint struct {
	Mapping       string  `json:"mapping"`
	BaseFinishSec float64 `json:"base_finish_sec"`
	RealFinishSec float64 `json:"real_finish_sec"`
	SpeedupReal   float64 `json:"speedup_real"`
	IntraBytes    int64   `json:"intra_bytes"`
	InterBytes    int64   `json:"inter_bytes"`
}

// WireMappingSweep is the serving form of a mapping sweep.
type WireMappingSweep struct {
	App            string             `json:"app"`
	Ranks          int                `json:"ranks"`
	PlatformDigest string             `json:"platform_digest"`
	Points         []WireMappingPoint `json:"points"`
}
