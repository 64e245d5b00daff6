package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// callKind selects the endpoint, and the client method, one call drives.
type callKind string

const (
	kindScenario callKind = "scenario"        // batch POST /v1/scenarios
	kindStream   callKind = "stream"          // NDJSON POST /v1/scenarios
	kindAnalyze  callKind = "analyze"         // POST /v1/analyze
	kindWhatIf   callKind = "whatif"          // POST /v1/whatif
	kindSweepBW  callKind = "sweep-bandwidth" // POST /v1/sweep/bandwidth
	kindSweepMap callKind = "sweep-mapping"   // POST /v1/sweep/mapping
	kindUpload   callKind = "upload"          // POST /v1/traces
	kindDelete   callKind = "delete"          // DELETE /v1/traces/{digest}
)

// call is one generated HTTP request: its endpoint and body, the node it
// goes to, and what its response is checked against.
type call struct {
	Kind     callKind                       `json:"kind"`
	Node     int                            `json:"node"`
	Scenario *service.ScenarioRequest       `json:"scenario,omitempty"`
	Analyze  *service.AnalyzeRequest        `json:"analyze,omitempty"`
	WhatIf   *service.WhatIfRequest         `json:"whatif,omitempty"`
	SweepBW  *service.BandwidthSweepRequest `json:"sweep_bw,omitempty"`
	SweepMap *service.MappingSweepRequest   `json:"sweep_map,omitempty"`
	// Trace indexes inputs.Uploads for upload and delete calls.
	Trace int `json:"trace"`
	// Points is how many grid points the response carries.
	Points int `json:"points"`
	// SameCall, when >= 0, is the index of an earlier call whose response
	// bytes this one must repeat.
	SameCall int `json:"same_call"`
	// SameTemplate, when >= 0, is the primed template whose response bytes
	// this one must repeat.
	SameTemplate int `json:"same_template"`
	// Superset, when >= 0, is the primed template whose points this
	// call's grid contains and must serve unchanged.
	Superset int `json:"superset"`
	// Keep retains the response bytes for the checks run after the window.
	Keep bool `json:"keep,omitempty"`
}

func newCall(kind callKind) call {
	return call{Kind: kind, SameCall: -1, SameTemplate: -1, Superset: -1}
}

// request returns the call's body as the service's request type, for the
// direct (no-HTTP) submissions of the checks and probes. Upload and
// delete calls have none.
func (c *call) request() service.Request {
	switch c.Kind {
	case kindScenario, kindStream:
		return *c.Scenario
	case kindAnalyze:
		return *c.Analyze
	case kindWhatIf:
		return *c.WhatIf
	case kindSweepBW:
		return *c.SweepBW
	case kindSweepMap:
		return *c.SweepMap
	}
	return nil
}

// probeSpec names the representative input of a workload, which the
// traced run feeds to the layers it calls directly after the window.
type probeSpec struct {
	App      string                  `json:"app"`
	Ranks    int                     `json:"ranks"`
	Preset   string                  `json:"preset"`
	Scenario service.ScenarioRequest `json:"scenario"`
	// PDESApps lists the applications whose 2-shard speedup is measured.
	PDESApps []string `json:"pdes_apps,omitempty"`
}

// inputs is everything a workload sends, built from the seed before any
// timing starts. The program under test receives only these.
type inputs struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`
	Clients  int    `json:"clients"`
	// Prime runs during set-up: it fills caches and finishes lazy set-up.
	Prime []call `json:"prime"`
	// Warmup runs during set-up on a throwaway stack, warming the process
	// without filling the measured stack's caches.
	Warmup []call `json:"warmup,omitempty"`
	// Ops are the measured operations; the calls of one op run in order
	// on one client.
	Ops [][]call `json:"ops"`
	// Uploads are the traces upload calls send; UploadDigests their
	// content addresses.
	Uploads       []*trace.Trace `json:"-"`
	UploadDigests []string       `json:"upload_digests,omitempty"`
	Probe         probeSpec      `json:"probe"`
	// Hops are cluster specs used only to time the cross-node hop.
	Hops []service.ScenarioRequest `json:"hops,omitempty"`
}

// calls returns the number of measured calls in ops[:n].
func (in *inputs) calls(n int) int {
	total := 0
	for _, op := range in.Ops[:n] {
		total += len(op)
	}
	return total
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// ops is the fixed operation count of a full run, sized so the
	// measured phase takes 15-20 s on a 2-CPU host.
	ops int
	gen func(d *drawer, n int, in *inputs) error
}

var workloads = []workload{
	{
		name: "sweep-grid",
		why:  "streamed 24-point grids on a platform that cannot shard: serial replay and the planner do the work, caches and tracer idle",
		ops:  360,
		gen:  genSweepGrid,
	},
	{
		name: "big-point",
		why:  "one-point specs at 256 ranks that the planner replays on 2 PDES shards: the only workload where parallel replay does the work",
		ops:  950,
		gen:  genBigPoint,
	},
	{
		name: "cold-specs",
		why:  "never-repeated specs with chunk axes over all apps and all endpoints: tracing, trace build, digest and compile dominate",
		ops:  420,
		gen:  genColdSpecs,
	},
	{
		name: "cached-mix",
		why:  "2 clients rerun 32 primed specs (Zipf), extend them and upload traces: spec cache, point cache, JSON and HTTP do the work",
		ops:  90000,
		gen:  genCachedMix,
	},
	{
		name: "cluster-3node",
		why:  "3 nodes over the HTTP peer transport: cold grids fan out by point owner, reruns hop to the owner's cache",
		ops:  4800,
		gen:  genCluster,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generate builds a workload's inputs for n operations from the seed.
func generate(w workload, seed int64, n int) (*inputs, error) {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	d := &drawer{r: rand.New(rand.NewPCG(uint64(seed), h.Sum64())), used: map[float64]bool{}}
	in := &inputs{Workload: w.name, Seed: seed, Nodes: 1, Clients: 1}
	if err := w.gen(d, n, in); err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	return in, nil
}

// ---------------------------------------------------------------------------
// Value draws

// drawer is a workload's seeded source. Every axis value it draws is new
// to the whole run, so no measured grid repeats a point by accident and
// "never-repeated" specs really never repeat.
type drawer struct {
	r    *rand.Rand
	used map[float64]bool
}

// draw returns k values lo + u·(hi-lo) not drawn before, rounded to 6
// significant digits so axis labels stay short.
func (d *drawer) draw(k int, lo, hi float64) []float64 {
	out := make([]float64, 0, k)
	for len(out) < k {
		v := lo + d.r.Float64()*(hi-lo)
		scale := math.Pow(10, 5-math.Floor(math.Log10(v)))
		v = math.Round(v*scale) / scale
		if !d.used[v] {
			d.used[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Measured bandwidths come from [50, 2000) MB/s; set-up and probe specs
// draw from disjoint ranges.
func (d *drawer) bw(k int) []float64      { return d.draw(k, 50, 2000) }
func (d *drawer) primeBW(k int) []float64 { return d.draw(k, 5000, 9000) }
func (d *drawer) probeBW(k int) []float64 { return d.draw(k, 10000, 14000) }
func (d *drawer) lat(k int) []float64     { return d.draw(k, 1e-6, 2e-5) }

func preset(name string) *service.PlatformSpec { return &service.PlatformSpec{Preset: name} }

// inlinePlatform spells a preset with a seeded inter-node bandwidth as an
// inline platform document, so per-kind requests without axes never
// repeat.
func inlinePlatform(name string, ranks int, bw float64) (*service.PlatformSpec, error) {
	p, err := network.PlatformPreset(name, ranks)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := p.WithInterBandwidth(bw).WriteJSON(&buf); err != nil {
		return nil, err
	}
	return &service.PlatformSpec{Inline: json.RawMessage(buf.Bytes())}, nil
}

func scenarioCall(kind callKind, req service.ScenarioRequest) call {
	c := newCall(kind)
	c.Scenario = &req
	c.Points = gridPoints(req.Axes)
	return c
}

func gridPoints(axes []core.Axis) int {
	n := 1
	for _, ax := range axes {
		n *= ax.Len()
	}
	return n
}

// ---------------------------------------------------------------------------
// Workload generators

const mareNostrum, fatNode = "marenostrum-4x", "fatnode-smp"

var allFlavors = []string{"base", "overlap-real", "overlap-ideal"}

func sweepGridSpec(app string, bws, lats []float64) service.ScenarioRequest {
	return service.ScenarioRequest{
		App: app, Ranks: 64, Platform: preset(mareNostrum), Flavors: allFlavors,
		Axes: []core.Axis{core.BandwidthAxis(bws...), core.LatencyAxis(lats...), core.MappingAxis("block", "rr")},
	}
}

// genSweepGrid: 1 client streams 24-point grids (bandwidth 6 × latency 2
// × mapping 2, 3 flavors) of cg/64 and specfem3d/64 on marenostrum-4x,
// whose finite intra-node bus pool makes PDES fall back to serial replay.
// Every grid is new; the programs are primed. A specfem3d grid takes
// about twice as long as a cg grid, so with the two apps 1:1 the median
// would sit on the gap between them and jump from run to run; 1:2 puts
// the median and p90 inside the specfem3d mode.
func genSweepGrid(d *drawer, n int, in *inputs) error {
	sgApps := []string{"cg", "specfem3d", "specfem3d"}
	for _, app := range sgApps[:2] {
		in.Prime = append(in.Prime, scenarioCall(kindStream, sweepGridSpec(app, d.primeBW(6), d.lat(2))))
	}
	for i := 0; i < n; i++ {
		c := scenarioCall(kindStream, sweepGridSpec(sgApps[i%len(sgApps)], d.bw(6), d.lat(2)))
		c.Keep = i < 3 || i%100 == 0
		in.Ops = append(in.Ops, []call{c})
	}
	first := in.Ops[0][0].Scenario
	in.Probe = probeSpec{App: first.App, Ranks: first.Ranks, Preset: mareNostrum, Scenario: *first}
	return nil
}

var pdesApps = []string{"cg", "specfem3d", "pop", "sweep3d"}

// bigPointApps is the rotation: the four apps take 5, 12, 30 and 43 ms
// per point, so with equal shares the median would sit on the gap after
// specfem3d; its double share puts the median inside its mode.
var bigPointApps = []string{"cg", "specfem3d", "pop", "sweep3d", "specfem3d"}

func bigPointSpec(app string, bw float64) service.ScenarioRequest {
	return service.ScenarioRequest{
		App: app, Ranks: 256, Platform: preset(fatNode), Flavors: []string{"overlap-real"},
		Axes: []core.Axis{core.BandwidthAxis(bw)},
	}
}

// genBigPoint: 1 client sends one-point, one-flavor batch specs at 256
// ranks on fatnode-smp (16 nodes), rotating bigPointApps, each with a
// fresh bandwidth. One replay job on a 2-worker
// engine makes the planner run it on 2 PDES shards.
func genBigPoint(d *drawer, n int, in *inputs) error {
	for _, app := range pdesApps {
		in.Prime = append(in.Prime, scenarioCall(kindScenario, bigPointSpec(app, d.primeBW(1)[0])))
	}
	for i := 0; i < n; i++ {
		c := scenarioCall(kindScenario, bigPointSpec(bigPointApps[i%len(bigPointApps)], d.bw(1)[0]))
		c.Keep = i < len(bigPointApps)
		in.Ops = append(in.Ops, []call{c})
	}
	first := in.Ops[0][0].Scenario
	in.Probe = probeSpec{App: first.App, Ranks: first.Ranks, Preset: fatNode, Scenario: *first, PDESApps: pdesApps}
	return nil
}

var chunkSet = []int{2, 3, 5, 6, 8}

// genColdSpecs: 1 client sends never-repeated specs over all six apps ×
// ranks {8, 16, 32}, in blocks that visit every (app, ranks) pair once,
// so any prefix of the run has the same mix. Calls rotate batch, batch,
// NDJSON, NDJSON, per-kind (analyze, sweep/bandwidth, sweep/mapping in
// turn). Scenario specs carry a 2-value chunks axis, which rebuilds and
// recompiles the overlapped traces on every spec; per-kind specs differ
// by a drawn bandwidth. Nothing is primed: set-up only warms the process
// on a throwaway stack.
func genColdSpecs(d *drawer, n int, in *inputs) error {
	type combo struct {
		app   string
		ranks int
	}
	var combos []combo
	for _, app := range apps.Names {
		for _, ranks := range []int{8, 16, 32} {
			combos = append(combos, combo{app, ranks})
		}
	}
	chunksAxis := func() core.Axis {
		perm := d.r.Perm(len(chunkSet))
		return core.ChunksAxis(chunkSet[perm[0]], chunkSet[perm[1]])
	}
	for _, app := range apps.Names {
		in.Warmup = append(in.Warmup, scenarioCall(kindScenario, service.ScenarioRequest{
			App: app, Ranks: 4, Platform: preset(mareNostrum),
			Axes: []core.Axis{chunksAxis(), core.BandwidthAxis(d.primeBW(1)...)},
		}))
	}
	var block []int
	for i := 0; i < n; i++ {
		if i%len(combos) == 0 {
			block = d.r.Perm(len(combos))
		}
		cb := combos[block[i%len(combos)]]
		var c call
		switch i % 5 {
		case 0, 1, 2, 3:
			kind := kindScenario
			if i%5 >= 2 {
				kind = kindStream
			}
			c = scenarioCall(kind, service.ScenarioRequest{
				App: cb.app, Ranks: cb.ranks, Platform: preset(mareNostrum),
				Axes: []core.Axis{chunksAxis(), core.BandwidthAxis(d.bw(1)...)},
			})
		default:
			plat, err := inlinePlatform(mareNostrum, cb.ranks, d.bw(1)[0])
			if err != nil {
				return err
			}
			switch (i / 5) % 3 {
			case 0:
				c = newCall(kindAnalyze)
				c.Analyze = &service.AnalyzeRequest{App: cb.app, Ranks: cb.ranks, Platform: plat}
				c.Points = 1
			case 1:
				c = newCall(kindSweepBW)
				c.SweepBW = &service.BandwidthSweepRequest{
					App: cb.app, Ranks: cb.ranks, Flavor: "overlap-real",
					Platform: preset(mareNostrum), Bandwidths: d.bw(2),
				}
				c.Points = 2
			default:
				c = newCall(kindSweepMap)
				c.SweepMap = &service.MappingSweepRequest{App: cb.app, Ranks: cb.ranks, Platform: plat, Mappings: []string{"block", "rr"}}
				c.Points = 2
			}
		}
		c.Keep = i < 10 || i%20 == 0
		in.Ops = append(in.Ops, []call{c})
	}
	first := in.Ops[0][0].Scenario
	in.Probe = probeSpec{App: first.App, Ranks: first.Ranks, Preset: mareNostrum, Scenario: *first}
	return nil
}

// mixTemplates fixes the cached-mix spec kinds in Zipf rank order, so
// every seed puts the same kind of request at the same popularity; the
// seed varies only the parameters and the draw sequence. "t" marks
// trace-mode scenarios over traces uploaded in set-up.
var mixTemplates = [32]string{
	"scenario", "stream", "analyze", "tscenario", "scenario", "whatif", "stream", "sweep-bandwidth",
	"scenario", "tstream", "stream", "sweep-mapping", "scenario", "analyze", "stream", "scenario",
	"tscenario", "stream", "whatif", "scenario", "analyze", "stream", "sweep-bandwidth", "scenario",
	"tstream", "stream", "sweep-mapping", "scenario", "analyze", "stream", "scenario", "stream",
}

var mixApps = []string{"cg", "specfem3d", "pop", "alya", "sweep3d"}

const (
	mixSetupTraces = 4  // uploaded in set-up for the trace-mode templates
	mixWritePool   = 64 // traces the write ops upload and delete in turn
)

// uploadVariants derives k distinct traces from base by scaling every
// compute burst by a seeded factor slightly above 1.
func uploadVariants(r *rand.Rand, base *trace.Trace, k int) []*trace.Trace {
	out := make([]*trace.Trace, k)
	for i := range out {
		f := 1 + 0.001*float64(i+1) + 0.0005*r.Float64()
		t := trace.New(base.Name, base.Flavor, base.NumRanks)
		for rank, rt := range base.Ranks {
			recs := make([]trace.Record, len(rt.Records))
			copy(recs, rt.Records)
			for j := range recs {
				if recs[j].Kind == trace.KindCompute {
					recs[j].Instr = int64(math.Round(float64(recs[j].Instr) * f))
				}
			}
			t.Ranks[rank].Records = recs
		}
		out[i] = t
	}
	return out
}

// genCachedMix: 2 clients draw from 32 specs primed in set-up with Zipf
// popularity (s = 1.1). 85% of operations rerun a primed spec exactly,
// 10% send a superset grid (one new bandwidth) that resumes from the
// point cache, and 5% write: upload a trace, run a fresh 2-point spec on
// it, delete it.
func genCachedMix(d *drawer, n int, in *inputs) error {
	in.Clients = 2
	entry, _ := apps.ByName("cg", 8)
	run, err := tracer.Trace("cg", 8, tracer.DefaultConfig(), entry.App.Kernel)
	if err != nil {
		return err
	}
	in.Uploads = uploadVariants(d.r, run.BaseTrace(), mixSetupTraces+mixWritePool)
	for _, t := range in.Uploads {
		d, err := trace.Digest(t)
		if err != nil {
			return err
		}
		in.UploadDigests = append(in.UploadDigests, d)
	}
	for i := 0; i < mixSetupTraces; i++ {
		c := newCall(kindUpload)
		c.Trace = i
		in.Prime = append(in.Prime, c)
	}
	firstPrimed := len(in.Prime)
	var scenarioTemplates []int
	traceMode := 0
	for t, kind := range mixTemplates {
		app := mixApps[t%len(mixApps)]
		ranks := 8 << ((t / len(mixApps)) % 2)
		var c call
		switch kind {
		case "scenario", "stream", "tscenario", "tstream":
			req := service.ScenarioRequest{
				Platform: preset(mareNostrum),
				Axes:     []core.Axis{core.BandwidthAxis(d.bw(3)...), core.MappingAxis("block", "rr")},
			}
			if kind[0] == 't' {
				req.Trace = in.UploadDigests[traceMode]
				traceMode++
				kind = kind[1:]
			} else {
				req.App, req.Ranks = app, ranks
				if t%2 == 1 {
					req.Output = "traffic"
				}
			}
			c = scenarioCall(callKind(kind), req)
			scenarioTemplates = append(scenarioTemplates, t)
		case "analyze":
			plat, err := inlinePlatform(mareNostrum, ranks, d.bw(1)[0])
			if err != nil {
				return err
			}
			c = newCall(kindAnalyze)
			c.Analyze = &service.AnalyzeRequest{App: app, Ranks: ranks, Platform: plat}
			c.Points = 1
		case "whatif":
			c = newCall(kindWhatIf)
			c.WhatIf = &service.WhatIfRequest{App: app, Ranks: ranks, Platform: preset(mareNostrum)}
			c.Points = 1
		case "sweep-bandwidth":
			c = newCall(kindSweepBW)
			c.SweepBW = &service.BandwidthSweepRequest{App: app, Ranks: ranks, Flavor: "overlap-real", Platform: preset(mareNostrum), Bandwidths: d.bw(4)}
			c.Points = 4
		case "sweep-mapping":
			c = newCall(kindSweepMap)
			c.SweepMap = &service.MappingSweepRequest{App: app, Ranks: ranks, Platform: preset(mareNostrum), Mappings: []string{"block", "rr"}}
			c.Points = 2
		}
		in.Prime = append(in.Prime, c)
	}
	// Templates are addressed by their Zipf rank t; the primed call of
	// template t is in.Prime[firstPrimed+t].
	zipf := rand.NewZipf(d.r, 1.1, 1, uint64(len(mixTemplates)-1))
	zipfScen := rand.NewZipf(d.r, 1.1, 1, uint64(len(scenarioTemplates)-1))
	writes := 0
	for i := 0; i < n; i++ {
		u := d.r.Float64()
		switch {
		case u < 0.85:
			t := int(zipf.Uint64())
			c := in.Prime[firstPrimed+t]
			c.SameTemplate = t
			in.Ops = append(in.Ops, []call{c})
		case u < 0.95:
			t := scenarioTemplates[zipfScen.Uint64()]
			base := in.Prime[firstPrimed+t]
			req := *base.Scenario
			bw := append(append([]float64(nil), req.Axes[0].Values...), d.bw(1)...)
			req.Axes = []core.Axis{core.BandwidthAxis(bw...), req.Axes[1]}
			c := scenarioCall(base.Kind, req)
			c.Superset = t
			in.Ops = append(in.Ops, []call{c})
		default:
			k := mixSetupTraces + writes%mixWritePool
			writes++
			up, del := newCall(kindUpload), newCall(kindDelete)
			up.Trace, del.Trace = k, k
			spec := scenarioCall(kindScenario, service.ScenarioRequest{
				Trace: in.UploadDigests[k], Platform: preset(mareNostrum),
				Axes: []core.Axis{core.BandwidthAxis(d.bw(2)...)},
			})
			in.Ops = append(in.Ops, []call{up, spec, del})
		}
	}
	first := in.Prime[firstPrimed].Scenario
	in.Probe = probeSpec{App: first.App, Ranks: first.Ranks, Preset: mareNostrum, Scenario: *first}
	return nil
}

func clusterSpec(app string, bws []float64) service.ScenarioRequest {
	return service.ScenarioRequest{
		App: app, Ranks: 16, Platform: preset(mareNostrum),
		Axes: []core.Axis{core.BandwidthAxis(bws...), core.MappingAxis("block", "rr")},
	}
}

// genCluster: 1 client sends round-robin to 3 nodes. Every third
// operation is a cold 8-point grid (bandwidth 4 × mapping 2, cg/16 and
// specfem3d/16 on marenostrum-4x, batch and NDJSON in turn); the others
// rerun an earlier grid against a different node than its first send. A
// cold grid takes several times a rerun, so with the two 1:1 the median
// would sit on the gap between them; 1:2 makes the median a rerun hop
// and p90 a cold fan-out.
func genCluster(d *drawer, n int, in *inputs) error {
	in.Nodes = 3
	cApps := []string{"cg", "specfem3d"}
	for i := 0; i < 2*len(cApps); i++ {
		c := scenarioCall(kindScenario, clusterSpec(cApps[i%len(cApps)], d.primeBW(4)))
		c.Node = i % in.Nodes
		in.Prime = append(in.Prime, c)
	}
	for i := 0; i < 5; i++ {
		in.Hops = append(in.Hops, clusterSpec(cApps[i%len(cApps)], d.probeBW(4)))
	}
	var cold []int // call indices of the cold grids so far
	for i := 0; i < n; i++ {
		node := i % in.Nodes
		if i%3 == 0 {
			k := i / 3
			node = k % in.Nodes
			kind := kindScenario
			if (k/2)%2 == 1 {
				kind = kindStream
			}
			c := scenarioCall(kind, clusterSpec(cApps[k%len(cApps)], d.bw(4)))
			c.Node = node
			c.Keep = k < 4
			cold = append(cold, i)
			in.Ops = append(in.Ops, []call{c})
			continue
		}
		j := cold[d.r.IntN(len(cold))]
		c := in.Ops[j][0]
		c.Keep = false
		c.SameCall = j
		if node == c.Node {
			node = (node + 1) % in.Nodes
		}
		c.Node = node
		in.Ops = append(in.Ops, []call{c})
	}
	first := in.Ops[0][0].Scenario
	in.Probe = probeSpec{App: first.App, Ranks: first.Ranks, Preset: mareNostrum, Scenario: *first}
	return nil
}
