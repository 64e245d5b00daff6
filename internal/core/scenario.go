package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// The unified declarative study API. A Scenario names one workload, one
// base platform, a flavor set, and a list of sweep axes whose cross
// product defines a run grid; RunScenario canonicalizes the spec,
// compiles each replayed trace flavor exactly once, expands the grid,
// executes the points on pooled replayers through the experiment engine,
// and returns a flat, deterministically ordered result table. Every
// study — chunk ablation, placement and node-count sweeps, bandwidth
// series, per-buffer what-if — is a scenario spec: the CLIs and examples
// build one, and the service layer's endpoints translate their wire
// requests into the same specs, so a new sweep axis lands everywhere at
// once instead of spawning a new API family.

// AxisKind names one sweep dimension of a scenario grid.
type AxisKind string

// The sweep axes. Platform axes vary the interconnect (the knob a
// cluster buyer controls; intra-node links stay fixed), workload axes
// re-derive the replayed traces.
const (
	// AxisBandwidth sweeps the inter-node bandwidth in MB/s.
	AxisBandwidth AxisKind = "bandwidth"
	// AxisLatency sweeps the inter-node latency in seconds.
	AxisLatency AxisKind = "latency"
	// AxisBuses sweeps the global interconnect bus pool size.
	AxisBuses AxisKind = "buses"
	// AxisChunks sweeps the overlapped-trace chunk count (rebuilds the
	// overlapped flavors from the one traced run).
	AxisChunks AxisKind = "chunks"
	// AxisMapping sweeps the rank→node placement.
	AxisMapping AxisKind = "mapping"
	// AxisNodes sweeps the node count ranks are packed onto.
	AxisNodes AxisKind = "nodes"
	// AxisRanks sweeps the world size (re-traces the application per
	// point; the platform is resized to match).
	AxisRanks AxisKind = "ranks"
	// AxisDerate sweeps the interconnect bandwidth derate factor in
	// (0, 1]; 1 is the healthy platform (faults.Spec.DerateInter).
	AxisDerate AxisKind = "derate"
	// AxisJitter sweeps the deterministic inter-node latency jitter
	// fraction; 0 is the healthy platform (faults.Spec.JitterFrac).
	AxisJitter AxisKind = "jitter"
	// AxisStragglers sweeps the number of seeded straggler ranks; 0 is
	// the healthy platform (faults.Spec.Stragglers).
	AxisStragglers AxisKind = "stragglers"
	// AxisLinkDown sweeps the number of seeded downed inter-node links;
	// 0 is the healthy platform (faults.Spec.LinkDown).
	AxisLinkDown AxisKind = "link-down"
)

// Axis is one sweep dimension: a kind plus its points. Exactly one of
// Values, Counts, or Mappings must be populated, matching the kind:
// bandwidth and latency take Values, buses/chunks/nodes/ranks take
// Counts, mapping takes Mappings (CLI spellings: "block", "rr", or an
// explicit node list like "0,0,1,1").
type Axis struct {
	Kind     AxisKind  `json:"kind"`
	Values   []float64 `json:"values,omitempty"`
	Counts   []int     `json:"counts,omitempty"`
	Mappings []string  `json:"mappings,omitempty"`
	// Zip names an advance-together group: axes sharing a Zip label
	// contribute one grid dimension whose i-th point sets the i-th value
	// of every member (bandwidth[i] paired with latency[i]), instead of
	// entering the cross product independently. Member axes must have
	// equal lengths. Empty means the axis sweeps on its own.
	Zip string `json:"zip,omitempty"`
}

// BandwidthAxis sweeps the inter-node bandwidth (MB/s).
func BandwidthAxis(mbps ...float64) Axis { return Axis{Kind: AxisBandwidth, Values: mbps} }

// LatencyAxis sweeps the inter-node latency (seconds).
func LatencyAxis(sec ...float64) Axis { return Axis{Kind: AxisLatency, Values: sec} }

// BusesAxis sweeps the global interconnect bus pool size.
func BusesAxis(buses ...int) Axis { return Axis{Kind: AxisBuses, Counts: buses} }

// ChunksAxis sweeps the overlapped-trace chunk count.
func ChunksAxis(counts ...int) Axis { return Axis{Kind: AxisChunks, Counts: counts} }

// MappingAxis sweeps rank→node placements given in their CLI spellings.
func MappingAxis(specs ...string) Axis { return Axis{Kind: AxisMapping, Mappings: specs} }

// NodeCountAxis sweeps the node count.
func NodeCountAxis(counts ...int) Axis { return Axis{Kind: AxisNodes, Counts: counts} }

// RanksAxis sweeps the world size.
func RanksAxis(counts ...int) Axis { return Axis{Kind: AxisRanks, Counts: counts} }

// DerateAxis sweeps the interconnect bandwidth derate factor (1 = healthy).
func DerateAxis(factors ...float64) Axis { return Axis{Kind: AxisDerate, Values: factors} }

// JitterAxis sweeps the deterministic latency jitter fraction (0 = healthy).
func JitterAxis(fracs ...float64) Axis { return Axis{Kind: AxisJitter, Values: fracs} }

// StragglersAxis sweeps the seeded straggler rank count (0 = healthy).
func StragglersAxis(counts ...int) Axis { return Axis{Kind: AxisStragglers, Counts: counts} }

// LinkDownAxis sweeps the seeded downed-link count (0 = healthy).
func LinkDownAxis(counts ...int) Axis { return Axis{Kind: AxisLinkDown, Counts: counts} }

// Len returns the number of points on the axis.
func (a Axis) Len() int { return len(a.Values) + len(a.Counts) + len(a.Mappings) }

// axisList names which of an Axis's point lists a kind takes.
type axisList uint8

const (
	listNone axisList = iota // unknown kind
	listValues
	listCounts
	listMappings
)

// list returns the point list the kind takes: the one place a kind's
// spelling is decided, for Validate and labels alike.
func (k AxisKind) list() axisList {
	switch k {
	case AxisBandwidth, AxisLatency, AxisDerate, AxisJitter:
		return listValues
	case AxisBuses, AxisChunks, AxisNodes, AxisRanks, AxisStragglers, AxisLinkDown:
		return listCounts
	case AxisMapping:
		return listMappings
	}
	return listNone
}

// Validate checks the axis shape: a known kind whose matching value list
// (and only it) is populated with sane points. Bus, node and downed-link
// counts that no platform can take (see network.Platform.Validate and
// faults.Spec.Validate) are refused here, before any point is planned.
func (a Axis) Validate() error {
	populated := 0
	if len(a.Values) > 0 {
		populated++
	}
	if len(a.Counts) > 0 {
		populated++
	}
	if len(a.Mappings) > 0 {
		populated++
	}
	if populated > 1 {
		return fmt.Errorf("core: axis %q populates %d of values/counts/mappings, want one", a.Kind, populated)
	}
	switch a.Kind.list() {
	case listValues:
		if len(a.Counts) > 0 || len(a.Mappings) > 0 {
			return fmt.Errorf("core: axis %q takes values, not counts or mappings", a.Kind)
		}
		for _, v := range a.Values {
			// A link's bandwidth may be +Inf; no other value may be
			// infinite, and none NaN.
			if math.IsNaN(v) || (math.IsInf(v, 0) && !(a.Kind == AxisBandwidth && v > 0)) {
				return fmt.Errorf("core: axis %q: value %g, must be finite", a.Kind, v)
			}
			switch a.Kind {
			case AxisBandwidth:
				if v <= 0 {
					return fmt.Errorf("core: axis %q: bandwidth %g MB/s, must be positive", a.Kind, v)
				}
			case AxisLatency:
				if v < 0 {
					return fmt.Errorf("core: axis %q: latency %g s, must be non-negative", a.Kind, v)
				}
			case AxisDerate:
				if v <= 0 || v > 1 {
					return fmt.Errorf("core: axis %q: derate factor %g, must be in (0, 1]", a.Kind, v)
				}
			case AxisJitter:
				if v < 0 {
					return fmt.Errorf("core: axis %q: jitter fraction %g, must be non-negative", a.Kind, v)
				}
			}
		}
	case listCounts:
		if len(a.Values) > 0 || len(a.Mappings) > 0 {
			return fmt.Errorf("core: axis %q takes counts, not values or mappings", a.Kind)
		}
		for _, k := range a.Counts {
			switch {
			case a.Kind == AxisBuses && k > network.MaxPoolUnits:
				return fmt.Errorf("core: axis %q: count %d, must be at most %d", a.Kind, k, network.MaxPoolUnits)
			case a.Kind == AxisNodes && k > trace.MaxRanks:
				return fmt.Errorf("core: axis %q: count %d, must be at most %d", a.Kind, k, trace.MaxRanks)
			case a.Kind == AxisLinkDown && k > faults.MaxLinkDown:
				return fmt.Errorf("core: axis %q: count %d, must be at most %d", a.Kind, k, faults.MaxLinkDown)
			case k > 0:
			case k == 0 && (a.Kind == AxisBuses || a.Kind == AxisStragglers || a.Kind == AxisLinkDown):
				// Meaningful zeros: an unlimited bus pool, or the healthy
				// point of a fault axis.
			default:
				return fmt.Errorf("core: axis %q: count %d, must be positive", a.Kind, k)
			}
		}
	case listMappings:
		if len(a.Values) > 0 || len(a.Counts) > 0 {
			return fmt.Errorf("core: axis %q takes mappings, not values or counts", a.Kind)
		}
		for _, s := range a.Mappings {
			if _, err := network.ParseMapping(s); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("core: unknown axis kind %q", a.Kind)
	}
	return nil
}

// labels returns the canonical point labels of the axis — the strings
// that appear both in the canonical spec (the digest input) and in the
// result table's coordinates, so a result row names its grid point in
// exactly the spelling the spec digested through.
func (a Axis) labels() ([]string, error) {
	out := make([]string, 0, a.Len())
	switch a.Kind.list() {
	case listMappings:
		for _, s := range a.Mappings {
			m, err := network.ParseMapping(s)
			if err != nil {
				return nil, err
			}
			out = append(out, m.String())
		}
	case listValues:
		for _, v := range a.Values {
			out = append(out, strconv.FormatFloat(v, 'g', -1, 64))
		}
	default:
		for _, k := range a.Counts {
			out = append(out, strconv.Itoa(k))
		}
	}
	return out, nil
}

// OutputKind selects what each grid point of a scenario retains.
type OutputKind string

// The output selectors, from cheapest to heaviest per point.
const (
	// OutputFinish retains each flavor's makespan (pooled replay).
	OutputFinish OutputKind = "finish"
	// OutputTraffic adds the intra/inter traffic split per flavor.
	OutputTraffic OutputKind = "traffic"
	// OutputWhatIf runs the per-buffer idealization ranking per point.
	OutputWhatIf OutputKind = "whatif"
	// OutputReport runs the full three-flavor analysis (wire report,
	// patterns included) per point.
	OutputReport OutputKind = "report"
)

// AppFactory builds the application configured for a given rank count
// (kernels whose decomposition depends on the world size need this).
type AppFactory func(ranks int) (App, error)

// Scenario is the declarative spec of one study.
//
// The workload is either an application (App, or Factory when a ranks
// axis must rebuild it per world size) traced through Tracer, or one
// pre-built trace (Trace) replayed as its own single flavor. The sweep
// axes' cross product — last axis fastest, like nested loops — defines
// the run grid executed on Platform.
type Scenario struct {
	// App is the fixed-workload application. Its kernel must tolerate
	// every swept rank count if a ranks axis is present and Factory is
	// nil.
	App App
	// Factory, when set, rebuilds the application per rank count and
	// takes precedence over App.
	Factory AppFactory
	// Ranks is the base world size (required in app mode).
	Ranks int
	// Tracer configures the instrumentation; the zero value selects
	// tracer.DefaultConfig().
	Tracer tracer.Config

	// Trace selects trace mode: replay this one stored trace
	// (engine.NewStoredTrace validated and digested it) instead of
	// tracing an application. Its digest enters the spec digest and the
	// result rows, and its program is compiled once, by the value.
	// Chunks/ranks axes, what-if, and report outputs need the traced run
	// and are rejected in trace mode.
	Trace *engine.StoredTrace

	// Platform is the base platform every grid point starts from. Its
	// Degradations are the "what breaks" block of a degradation study:
	// fault axes (derate, jitter, stragglers, link-down) vary the
	// corresponding field per grid point on top of them.
	Platform network.Platform
	// Flavors lists the execution flavors measured per grid point for
	// finish/traffic outputs (default: base and overlap-real; trace mode
	// forces the trace's own flavor). Report and what-if outputs validate
	// it and otherwise ignore it — they define their own flavor sets, and
	// their specs digest with the default list.
	Flavors []Flavor
	// Axes are the sweep dimensions; empty means a single grid point.
	Axes []Axis
	// Output selects what each point retains (default OutputFinish).
	Output OutputKind

	// Traces is the trace cache every traced run and application program
	// of the scenario comes from. When set, it is shared: scenarios over
	// one application dedupe their instrumentation runs whatever their
	// chunk counts, and every (ranks, chunks, flavor) program of the
	// workload, chunk axes included, is built and compiled once across
	// scenarios. When nil the run uses a cache of its own, so each
	// program still builds once per run. A stored trace (Trace) brings
	// its own program and never touches the cache.
	// Leave nil unless the app-name-equals-kernel invariant of the cache
	// holds (the apps registry maintains it; ad-hoc kernels should not
	// share a cache).
	Traces *engine.TraceCache

	// PointCache, when set, is consulted per grid point before any
	// simulation is scheduled and fed every freshly computed point: the
	// partial-grid resume hook. Keys are per-point spec digests
	// (ScenarioPoint.Digest), so a spec whose grid overlaps an earlier
	// run's reuses those points and simulates only the gap. Like Traces,
	// it is an execution hook, not part of the spec's identity — it never
	// enters the canonical digest.
	PointCache PointCache

	// ReplayShards overrides the planner's intra-point parallelism choice
	// for every replay of the grid: 0 or less leaves it to the planner,
	// which decides by grid size (pointShards) and by each program's
	// shard note (autoShards), 1 forces serial replay, n > 1 requests n
	// conservative-PDES shards per replay
	// (sim.ReplaySummary; platforms that cannot shard fall back to
	// serial). Sharded and serial replays are byte-identical, so this is
	// pure scheduling — like Traces and PointCache it never enters the
	// canonical digest.
	ReplayShards int
}

// PointCache is the point-level resume store RunScenarioStream consults
// and populates. Implementations must be safe for concurrent use and
// treat stored points as immutable.
type PointCache interface {
	// GetPoint returns the completed point stored under a per-point spec
	// digest.
	GetPoint(digest string) (ScenarioPoint, bool)
	// PutPoint stores a completed point under its digest.
	PutPoint(digest string, pt ScenarioPoint)
}

// normalized returns a validated copy with defaults applied.
func (s Scenario) normalized() (Scenario, error) {
	if s.Tracer == (tracer.Config{}) {
		s.Tracer = tracer.DefaultConfig()
	}
	if s.Output == "" {
		s.Output = OutputFinish
	}
	switch s.Output {
	case OutputFinish, OutputTraffic, OutputWhatIf, OutputReport:
	default:
		return s, fmt.Errorf("core: unknown scenario output %q", s.Output)
	}
	traceMode := s.Trace != nil
	if traceMode {
		if s.App.Kernel != nil || s.Factory != nil {
			return s, fmt.Errorf("core: scenario sets both an app and a trace workload")
		}
		if s.Output == OutputWhatIf || s.Output == OutputReport {
			return s, fmt.Errorf("core: %s output needs a traced application, not a stored trace", s.Output)
		}
		s.Ranks = s.Trace.Trace().NumRanks
		own := Flavor(s.Trace.Trace().Flavor)
		if len(s.Flavors) == 0 {
			s.Flavors = []Flavor{own}
		}
		for _, f := range s.Flavors {
			if f != own {
				return s, fmt.Errorf("core: stored trace is flavor %q, cannot measure %q", own, f)
			}
		}
	} else {
		if s.App.Kernel == nil && s.Factory == nil {
			return s, fmt.Errorf("core: scenario has no workload (app kernel, factory, or trace)")
		}
		if s.Ranks <= 0 {
			return s, fmt.Errorf("core: scenario ranks=%d, must be positive", s.Ranks)
		}
		if s.Tracer.Chunks <= 0 {
			return s, fmt.Errorf("core: scenario tracer chunks=%d, must be positive", s.Tracer.Chunks)
		}
		for _, f := range s.Flavors {
			switch f {
			case FlavorBase, FlavorReal, FlavorIdeal:
			default:
				return s, fmt.Errorf("core: unknown flavor %q", f)
			}
		}
		if len(s.Flavors) == 0 || s.Output == OutputWhatIf || s.Output == OutputReport {
			// Report and what-if outputs replay flavor sets of their own,
			// so their specs digest as if the list were left out.
			s.Flavors = []Flavor{FlavorBase, FlavorReal}
		}
	}
	if err := s.Platform.Validate(); err != nil {
		return s, err
	}
	if s.Ranks > s.Platform.Processors {
		return s, fmt.Errorf("core: %d ranks exceed the platform's %d processors", s.Ranks, s.Platform.Processors)
	}
	seen := map[AxisKind]bool{}
	for _, ax := range s.Axes {
		if err := ax.Validate(); err != nil {
			return s, err
		}
		if seen[ax.Kind] {
			return s, fmt.Errorf("core: duplicate %q axis", ax.Kind)
		}
		seen[ax.Kind] = true
		if traceMode && (ax.Kind == AxisChunks || ax.Kind == AxisRanks) {
			return s, fmt.Errorf("core: %q axis needs a traced application, not a stored trace", ax.Kind)
		}
	}
	// Zip groups advance together, so every member must offer the same
	// number of points.
	zipLen := map[string]int{}
	zipMembers := map[string]int{}
	for _, ax := range s.Axes {
		if ax.Zip == "" {
			continue
		}
		if n, ok := zipLen[ax.Zip]; ok && n != ax.Len() {
			return s, fmt.Errorf("core: zip group %q mixes axis lengths %d and %d", ax.Zip, n, ax.Len())
		}
		zipLen[ax.Zip] = ax.Len()
		zipMembers[ax.Zip]++
	}
	// Canonicalize away zips that don't constrain the grid: a group with
	// one member, or whose axes hold a single point each, expands exactly
	// like the plain cross product, so both spellings must digest — and
	// execute — identically. Clearing happens on a copied slice; the
	// caller's spec is never mutated.
	clear := func(ax Axis) bool {
		return ax.Zip != "" && (zipMembers[ax.Zip] == 1 || ax.Len() == 1)
	}
	for _, ax := range s.Axes {
		if clear(ax) {
			axes := make([]Axis, len(s.Axes))
			copy(axes, s.Axes)
			for i := range axes {
				if clear(axes[i]) {
					axes[i].Zip = ""
				}
			}
			s.Axes = axes
			break
		}
	}
	if s.GridSize() == math.MaxInt {
		return s, fmt.Errorf("core: scenario grid size overflows int")
	}
	return s, nil
}

// axisGroups partitions axis indices into grid dimensions: zipped axes
// share one group (ordered by their first member's spec position),
// every other axis is its own group.
func (s Scenario) axisGroups() [][]int {
	groups := make([][]int, 0, len(s.Axes))
	byZip := map[string]int{}
	for i, ax := range s.Axes {
		if ax.Zip == "" {
			groups = append(groups, []int{i})
			continue
		}
		if g, ok := byZip[ax.Zip]; ok {
			groups[g] = append(groups[g], i)
		} else {
			byZip[ax.Zip] = len(groups)
			groups = append(groups, []int{i})
		}
	}
	return groups
}

// groupLen returns the point count of one axis group (the shortest
// member, though validation makes them equal).
func (s Scenario) groupLen(group []int) int {
	n := s.Axes[group[0]].Len()
	for _, i := range group[1:] {
		if l := s.Axes[i].Len(); l < n {
			n = l
		}
	}
	return n
}

// GridSize returns the number of grid points the axes expand to (1 with
// no axes; 0 if any axis is empty): the product over axis groups, a zip
// group counting once. The spec is not validated. A product that does
// not fit an int saturates at math.MaxInt, and normalization rejects it.
func (s Scenario) GridSize() int {
	n := 1
	for _, g := range s.axisGroups() {
		l := s.groupLen(g)
		switch {
		case l == 0:
			return 0
		case n > math.MaxInt/l:
			n = math.MaxInt
		default:
			n *= l
		}
	}
	return n
}

// canonicalAxis is an axis reduced to its canonical point labels.
type canonicalAxis struct {
	Kind   AxisKind `json:"kind"`
	Points []string `json:"points"`
	Zip    string   `json:"zip,omitempty"`
}

// canonicalScenario is what a scenario digests through: every field that
// changes the result, nothing that doesn't. The platform appears as its
// canonical JSON (mapping materialized), traces as content digests, and
// mapping-axis points in their parsed spelling — so equivalent spellings
// of one study collapse to one digest.
type canonicalScenario struct {
	App         string          `json:"app,omitempty"`
	Ranks       int             `json:"ranks,omitempty"`
	Tracer      canonicalTracer `json:"tracer,omitzero"`
	TraceDigest string          `json:"trace_digest,omitempty"`
	Platform    json.RawMessage `json:"platform"`
	Flavors     []Flavor        `json:"flavors"`
	Axes        []canonicalAxis `json:"axes"`
	Output      OutputKind      `json:"output"`
}

// canonicalTracer is the tracer block of the canonical spec: the chunk
// count, spelled out next to the tracer's constant element size and
// per-access instruction costs (one instruction per tracked load or
// store), which are part of every spec and point digest's bytes.
type canonicalTracer struct {
	Chunks              int
	ElemBytes           int64
	LoadCost, StoreCost int64
}

// canonicalBase builds the canonical form of an already-normalized spec
// with Axes left empty — the shared trunk of the spec digest (full axes
// grafted on) and the per-point digests (one pinned value per axis).
func (s *Scenario) canonicalBase() (canonicalScenario, error) {
	platJSON, err := s.Platform.CanonicalJSON()
	if err != nil {
		return canonicalScenario{}, err
	}
	c := canonicalScenario{
		Platform: platJSON,
		Flavors:  s.Flavors,
		Output:   s.Output,
	}
	if s.Trace != nil {
		c.TraceDigest = s.Trace.Digest()
	} else {
		c.App = s.App.Name
		if s.Factory != nil {
			app, err := s.Factory(s.Ranks)
			if err != nil {
				return canonicalScenario{}, err
			}
			c.App = app.Name
		}
		c.Ranks = s.Ranks
		c.Tracer = canonicalTracer{Chunks: s.Tracer.Chunks, ElemBytes: tracer.ElemBytes, LoadCost: 1, StoreCost: 1}
	}
	return c, nil
}

// CanonicalJSON returns the canonical serialized form of the scenario:
// compact JSON with a fixed field order, the platform canonicalized, the
// workload content-addressed, and axis points in canonical spellings.
// Two specs produce the same canonical bytes exactly when they define
// the same study.
func (s Scenario) CanonicalJSON() ([]byte, error) {
	norm, err := s.normalized()
	if err != nil {
		return nil, err
	}
	c, err := norm.canonicalBase()
	if err != nil {
		return nil, err
	}
	c.Axes = make([]canonicalAxis, 0, len(norm.Axes))
	for _, ax := range norm.Axes {
		labels, err := ax.labels()
		if err != nil {
			return nil, err
		}
		c.Axes = append(c.Axes, canonicalAxis{Kind: ax.Kind, Points: labels, Zip: ax.Zip})
	}
	b, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("core: canonicalize scenario: %w", err)
	}
	return b, nil
}

// Digest returns the content address of the scenario spec, spelled like
// trace and platform digests ("sha256:<64 hex digits>").
func (s Scenario) Digest() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return digestBytes(b), nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// pointDigest returns the spec digest of the single-point scenario that
// pins one grid coordinate: base must be the spec's canonicalBase, and
// every axis narrows to the point's value on it. It equals
// Scenario.Digest() of that pinned spec — zip groups collapse away on
// single-point axes — so overlapping grids submitted as different specs
// meet at the same point keys, which is what lets a point-level cache
// resume a partially-computed grid.
func pointDigest(base canonicalScenario, coords []Coord) (string, error) {
	axes := make([]canonicalAxis, len(coords))
	for i, c := range coords {
		axes[i] = canonicalAxis{Kind: c.Axis, Points: []string{c.Value}}
	}
	base.Axes = axes
	b, err := json.Marshal(base)
	if err != nil {
		return "", fmt.Errorf("core: canonicalize scenario point: %w", err)
	}
	return digestBytes(b), nil
}

// Coord names one grid point's position on one axis, in the axis's
// canonical point spelling.
type Coord struct {
	Axis  AxisKind `json:"axis"`
	Value string   `json:"value"`
}

// PointKey names one grid point of a scenario without running it: its
// coordinates (canonical axis spellings) and the point digest the point
// cache is keyed on.
type PointKey struct {
	Coords []Coord
	Digest string
}

// PointKeys expands the grid and returns every point's key in run
// order, without simulating anything. Each key's Digest is the spec
// digest of the pinned single-point scenario (see pointDigest), so a
// single-point spec built from Coords digests back to the same key.
func (s Scenario) PointKeys() ([]PointKey, error) {
	norm, err := s.normalized()
	if err != nil {
		return nil, err
	}
	base, err := norm.canonicalBase()
	if err != nil {
		return nil, err
	}
	pts, err := norm.grid()
	if err != nil {
		return nil, err
	}
	keys := make([]PointKey, len(pts))
	for i, pt := range pts {
		d, err := pointDigest(base, pt.coords)
		if err != nil {
			return nil, err
		}
		keys[i] = PointKey{Coords: pt.coords, Digest: d}
	}
	return keys, nil
}

// WireTraffic is the per-flavor traffic split of a traffic-output point.
type WireTraffic struct {
	IntraBytes int64 `json:"intra_bytes"`
	InterBytes int64 `json:"inter_bytes"`
	IntraMsgs  int   `json:"intra_msgs"`
	InterMsgs  int   `json:"inter_msgs"`
}

// FlavorMeasure is one flavor's measurement at one grid point.
type FlavorMeasure struct {
	Flavor Flavor `json:"flavor"`
	// TraceDigest content-addresses the exact trace this row replayed.
	TraceDigest string  `json:"trace_digest"`
	FinishSec   float64 `json:"finish_sec"`
	// Fault, when non-empty, reports that injected hard faults (downed
	// NICs or inter-node links) severed ranks this flavor needed: the
	// replay stalled instead of finishing, FinishSec is 0, and Fault
	// describes the stall. Genuine trace deadlocks on healthy platforms
	// remain hard errors, not Fault rows.
	Fault string `json:"fault,omitempty"`
	// Traffic is present for traffic output.
	Traffic *WireTraffic `json:"traffic,omitempty"`
}

// ScenarioPoint is one row of the result table: a grid coordinate plus
// the output selected by the spec.
type ScenarioPoint struct {
	Coords []Coord `json:"coords"`
	// Digest is the spec digest of the single-point scenario pinning this
	// coordinate — the key the service's point-level cache resumes
	// overlapping grids through.
	Digest string `json:"point_digest,omitempty"`
	// Flavors carries finish/traffic measurements, in spec flavor order.
	Flavors []FlavorMeasure `json:"flavors,omitempty"`
	// WhatIf carries the per-buffer ranking (what-if output).
	WhatIf *WireWhatIf `json:"whatif,omitempty"`
	// Report carries the full analysis (report output).
	Report *WireReport `json:"report,omitempty"`
}

// ScenarioHeader is everything a scenario result says besides its
// points: the resolved workload, the digests, and the grid shape. It is
// the first frame of the streaming wire protocol, and ScenarioResult
// embeds it so the batch JSON is the header's fields followed by the
// point array.
type ScenarioHeader struct {
	App   string `json:"app"`
	Ranks int    `json:"ranks,omitempty"`
	// TraceDigest is set for trace-mode workloads.
	TraceDigest string `json:"trace_digest,omitempty"`
	// SpecDigest is the canonical digest of the spec that produced this
	// result — the key the service caches under.
	SpecDigest string `json:"spec_digest"`
	// PlatformDigest content-addresses the base platform (before axis
	// transforms).
	PlatformDigest string     `json:"platform_digest"`
	Output         OutputKind `json:"output"`
	Axes           []AxisKind `json:"axes"`
	// GridPoints is the expanded grid size — how many points a complete
	// result (or stream) carries.
	GridPoints int `json:"grid_points"`
}

// Header canonicalizes the spec and returns the result header without
// running anything — what a streaming consumer sees before the first
// point.
func (s Scenario) Header() (*ScenarioHeader, error) {
	sc, err := s.normalized()
	if err != nil {
		return nil, err
	}
	return sc.header()
}

// header builds the result header of an already-normalized spec.
func (s *Scenario) header() (*ScenarioHeader, error) {
	specDigest, err := s.Digest()
	if err != nil {
		return nil, err
	}
	platDigest, err := s.Platform.Digest()
	if err != nil {
		return nil, err
	}
	h := &ScenarioHeader{
		Ranks:          s.Ranks,
		SpecDigest:     specDigest,
		PlatformDigest: platDigest,
		Output:         s.Output,
		Axes:           make([]AxisKind, 0, len(s.Axes)),
		GridPoints:     s.GridSize(),
	}
	for _, ax := range s.Axes {
		h.Axes = append(h.Axes, ax.Kind)
	}
	if s.Trace != nil {
		h.App = s.Trace.Trace().Name
		h.TraceDigest = s.Trace.Digest()
	} else {
		app := s.App
		if s.Factory != nil {
			if app, err = s.Factory(s.Ranks); err != nil {
				return nil, err
			}
		}
		h.App = app.Name
	}
	return h, nil
}

// ScenarioResult is the flat, deterministically ordered result table of
// one scenario: grid points in row-major spec order (last axis fastest),
// flavors in spec order within a point. It is also the wire form the
// service's POST /v1/scenarios serves, and byte-for-byte the
// concatenation of the streaming protocol's header and point frames.
type ScenarioResult struct {
	ScenarioHeader
	Points []ScenarioPoint `json:"points"`
}

// gridPoint is one expanded coordinate of the run grid.
type gridPoint struct {
	coords []Coord
	plat   network.Platform
	ranks  int
	chunks int
}

// grid expands the axes into concrete run points, row-major with the
// last axis group fastest (zipped axes advance together as one group).
// Platform axes transform the base platform; chunks/ranks axes
// re-parameterize the workload. Each point's platform is validated
// after all transforms.
func (s *Scenario) grid() ([]gridPoint, error) {
	type axisPoints struct {
		ax       Axis
		labels   []string
		mappings []network.Mapping
	}
	axes := make([]axisPoints, len(s.Axes))
	for i, ax := range s.Axes {
		labels, err := ax.labels()
		if err != nil {
			return nil, err
		}
		axes[i] = axisPoints{ax: ax, labels: labels}
		if ax.Kind == AxisMapping {
			axes[i].mappings = make([]network.Mapping, len(ax.Mappings))
			for j, spec := range ax.Mappings {
				m, err := network.ParseMapping(spec)
				if err != nil {
					return nil, err
				}
				axes[i].mappings[j] = m
			}
		}
	}
	groups := s.axisGroups()
	total := s.GridSize()
	pts := make([]gridPoint, 0, total)
	for i := 0; i < total; i++ {
		idx := make([]int, len(axes))
		rem := i
		for g := len(groups) - 1; g >= 0; g-- {
			n := s.groupLen(groups[g])
			k := rem % n
			rem /= n
			for _, a := range groups[g] {
				idx[a] = k
			}
		}
		pt := gridPoint{
			coords: make([]Coord, len(axes)),
			plat:   s.Platform,
			ranks:  s.Ranks,
			chunks: s.Tracer.Chunks,
		}
		// Workload axes apply first: the ranks resize rewrites the
		// platform's Processors (and, for flat platforms, Nodes), and
		// applying it before the platform axes lets an explicit nodes or
		// mapping coordinate override it — each axis owns its own field
		// regardless of spec order.
		for a, ap := range axes {
			k := idx[a]
			pt.coords[a] = Coord{Axis: ap.ax.Kind, Value: ap.labels[k]}
			switch ap.ax.Kind {
			case AxisChunks:
				pt.chunks = ap.ax.Counts[k]
			case AxisRanks:
				r := ap.ax.Counts[k]
				pt.ranks = r
				// Resize the platform to the swept world size: a flat
				// (one-rank-per-node) platform stays flat, a multi-node
				// platform keeps its node structure.
				if !s.Platform.MultiNode() {
					pt.plat = pt.plat.WithProcessors(r).WithNodes(r)
				} else {
					pt.plat = pt.plat.WithProcessors(r)
				}
			}
		}
		for a, ap := range axes {
			k := idx[a]
			switch ap.ax.Kind {
			case AxisBandwidth:
				pt.plat = pt.plat.WithInterBandwidth(ap.ax.Values[k])
			case AxisLatency:
				pt.plat = pt.plat.WithInterLatency(ap.ax.Values[k])
			case AxisBuses:
				pt.plat = pt.plat.WithBuses(ap.ax.Counts[k])
			case AxisNodes:
				pt.plat = pt.plat.WithNodes(ap.ax.Counts[k])
			case AxisMapping:
				pt.plat = pt.plat.WithMapping(ap.mappings[k])
			case AxisDerate:
				pt.plat = pt.plat.WithDerateInter(ap.ax.Values[k])
			case AxisJitter:
				pt.plat = pt.plat.WithJitter(ap.ax.Values[k])
			case AxisStragglers:
				pt.plat = pt.plat.WithStragglers(ap.ax.Counts[k])
			case AxisLinkDown:
				pt.plat = pt.plat.WithLinkDown(ap.ax.Counts[k])
			}
		}
		if err := pt.plat.Validate(); err != nil {
			return nil, fmt.Errorf("core: grid point %v: %w", pt.coords, err)
		}
		if pt.ranks > pt.plat.Processors {
			return nil, fmt.Errorf("core: grid point %v: %d ranks exceed the platform's %d processors",
				pt.coords, pt.ranks, pt.plat.Processors)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// ---------------------------------------------------------------------------
// Execution

// scenarioExec resolves one run's workload: the application per world
// size, and every traced run and compiled program from one trace cache
// — the spec's shared Traces, or a cache the run owns. The cache builds
// each run and program once while it holds it, however many grid points
// share it: the compile-once guarantee of the planner.
type scenarioExec struct {
	sc     *Scenario
	traces *engine.TraceCache
	// buffers lists, per world size of a what-if grid, the communicated
	// buffers its points replay one selective flavor each for.
	buffers map[int][]string
}

func newScenarioExec(sc *Scenario) *scenarioExec {
	traces := sc.Traces
	if traces == nil {
		traces = engine.NewTraceCache()
	}
	return &scenarioExec{sc: sc, traces: traces}
}

// appFor resolves the application for one world size. A kernel-less app
// fails here, before the cache could trace it and keep the failure.
func (x *scenarioExec) appFor(ranks int) (App, error) {
	app := x.sc.App
	if x.sc.Factory != nil {
		var err error
		if app, err = x.sc.Factory(ranks); err != nil {
			return App{}, err
		}
	}
	if app.Kernel == nil {
		return App{}, fmt.Errorf("core: app %q has no kernel", app.Name)
	}
	return app, nil
}

// progFor returns the compiled program and trace digest of one flavor at
// one grid point: the stored trace's own program in trace mode, else the
// application's flavor program at the point's (ranks, chunks).
func (x *scenarioExec) progFor(pt gridPoint, f Flavor) (*sim.Program, string, error) {
	if st := x.sc.Trace; st != nil {
		prog, err := st.Program()
		return prog, st.Digest(), err
	}
	app, err := x.appFor(pt.ranks)
	if err != nil {
		return nil, "", err
	}
	return x.traces.CompiledProgram(app.Name, pt.ranks, tracer.Config{Chunks: pt.chunks}, app.Kernel, string(f))
}

// traceBuffers fills x.buffers for a what-if grid: it traces every world
// size the grid's uncached points need, concurrently, and reads each
// run's communicated buffers. Other outputs replay no selective flavor.
func (x *scenarioExec) traceBuffers(ctx context.Context, eng *engine.Engine, grid []gridPoint, cached []*ScenarioPoint) error {
	if x.sc.Output != OutputWhatIf {
		return nil
	}
	x.buffers = map[int][]string{}
	var sizes []int
	for p, pt := range grid {
		if _, ok := x.buffers[pt.ranks]; !ok && cached[p] == nil {
			x.buffers[pt.ranks] = nil
			sizes = append(sizes, pt.ranks)
		}
	}
	if len(sizes) == 0 {
		return nil
	}
	t0 := time.Now()
	names, err := engine.Map(ctx, eng, len(sizes), func(ctx context.Context, i int) ([]string, error) {
		app, err := x.appFor(sizes[i])
		if err != nil {
			return nil, err
		}
		run, err := x.traces.Trace(app.Name, sizes[i], x.sc.Tracer, app.Kernel)
		if err != nil {
			return nil, fmt.Errorf("core: tracing %q: %w", app.Name, err)
		}
		return run.BufferNames(), nil
	})
	if err != nil {
		return err
	}
	for i, r := range sizes {
		x.buffers[r] = names[i]
	}
	mStageCompile.ObserveSince(t0)
	return nil
}

// flavorsAt lists the flavors one grid point replays, in the order its
// output reads them: the spec's for finish and traffic output, base,
// overlap-real and overlap-ideal for a report, and for a what-if the base
// and overlap-real references and then one selective flavor per buffer
// the point's world size communicates.
func (x *scenarioExec) flavorsAt(pt gridPoint) []Flavor {
	switch x.sc.Output {
	case OutputReport:
		return flavors
	case OutputWhatIf:
		fs := []Flavor{FlavorBase, FlavorReal}
		for _, b := range x.buffers[pt.ranks] {
			fs = append(fs, Flavor(engine.SelectiveFlavor(b)))
		}
		return fs
	}
	return x.sc.Flavors
}

// replayed is one replay job's measurement: the replayed trace's digest
// and the replay's summary, or the fault-induced stall that stopped it.
type replayed struct {
	digest string
	sum    sim.Summary
	fault  string
}

// replay runs one replay job: the flavor's program at the point, from
// the cache, replayed in summary mode on the requested shards, which
// autoShards settles when the planner chose them. It is the
// one place a fault-induced stall is decided: finish and traffic output
// report it in the flavor's row, while report and what-if output have no
// row to carry it and fail like any replay error.
func (x *scenarioExec) replay(pt gridPoint, f Flavor, shards int) (replayed, error) {
	t0 := time.Now()
	prog, digest, err := x.progFor(pt, f)
	if err != nil {
		return replayed{}, err
	}
	mStageCompile.ObserveSince(t0)
	if x.sc.ReplayShards <= 0 && shards > 1 {
		shards = autoShards(pt.plat, prog, shards)
	}
	t0 = time.Now()
	sum, err := sim.ReplaySummary(pt.plat, prog, shards)
	mStageReplay.ObserveSince(t0)
	if err != nil {
		var dl *sim.DeadlockError
		if errors.As(err, &dl) && dl.FaultInduced() && (x.sc.Output == OutputFinish || x.sc.Output == OutputTraffic) {
			// Injected hard faults severed ranks this flavor needed. In a
			// what-breaks-first grid that is a result, not a failure.
			// Genuine trace deadlocks (nothing dropped) stay hard errors.
			mPtsFaulted.Inc()
			return replayed{digest: digest, fault: fmt.Sprintf("deadlock: %d ranks blocked, %d transfers lost to downed NICs/links", len(dl.Blocked), dl.Dropped)}, nil
		}
		return replayed{}, fmt.Errorf("core: scenario point %v %s: %w", pt.coords, f, err)
	}
	return replayed{digest: digest, sum: sum}, nil
}

// assemble builds the output of one computed grid point from its
// flavors' measurements in flavorsAt order, adding the cache's Table II
// patterns to a report and ranking a what-if's buffers.
func (x *scenarioExec) assemble(pt gridPoint, ms []replayed) (ScenarioPoint, error) {
	if x.sc.Output == OutputFinish || x.sc.Output == OutputTraffic {
		fms := make([]FlavorMeasure, len(ms))
		for k, m := range ms {
			fms[k] = FlavorMeasure{Flavor: x.sc.Flavors[k], TraceDigest: m.digest, FinishSec: m.sum.FinishSec, Fault: m.fault}
			if x.sc.Output == OutputTraffic && m.fault == "" {
				fms[k].Traffic = &WireTraffic{
					IntraBytes: m.sum.IntraBytes,
					InterBytes: m.sum.InterBytes,
					IntraMsgs:  m.sum.IntraMsgs,
					InterMsgs:  m.sum.InterMsgs,
				}
			}
		}
		return ScenarioPoint{Flavors: fms}, nil
	}
	app, err := x.appFor(pt.ranks)
	if err != nil {
		return ScenarioPoint{}, err
	}
	if x.sc.Output == OutputWhatIf {
		wi, err := wireWhatIf(app.Name, pt.ranks, pt.plat, x.buffers[pt.ranks], ms)
		return ScenarioPoint{WhatIf: wi}, err
	}
	pat, err := x.traces.Patterns(app.Name, pt.ranks, tracer.Config{Chunks: pt.chunks}, app.Kernel)
	if err != nil {
		return ScenarioPoint{}, err
	}
	rep, err := wireReport(app.Name, pt.ranks, pt.plat, ms, pat)
	return ScenarioPoint{Report: rep}, err
}

// RunScenario is the one planner behind every study: it canonicalizes
// the spec, expands the axes into a run grid, executes the points on
// pooled replayers through the engine (nil selects the default engine),
// compiling each replayed trace flavor exactly once, and returns the
// flat result table in deterministic row-major order. It is a thin
// collector over the stream RunScenarioStream runs — the batch result is
// exactly the stream's points, so the two paths cannot drift.
func RunScenario(ctx context.Context, eng *engine.Engine, spec Scenario) (*ScenarioResult, error) {
	sc, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	pts := make([]ScenarioPoint, 0, sc.GridSize())
	hdr, err := sc.stream(ctx, eng, func(pt ScenarioPoint) error {
		pts = append(pts, pt)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ScenarioResult{ScenarioHeader: *hdr, Points: pts}, nil
}

// coordsLabel joins a point's coordinates into "axis=value" pairs.
func coordsLabel(coords []Coord) string {
	out := ""
	for i, c := range coords {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%s", c.Axis, c.Value)
	}
	return out
}
