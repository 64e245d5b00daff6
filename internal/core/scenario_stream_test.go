package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/engine"
)

// memPointCache is a PointCache over a plain map, for resume tests.
type memPointCache struct {
	m    map[string]ScenarioPoint
	hits int
}

func newMemPointCache() *memPointCache { return &memPointCache{m: map[string]ScenarioPoint{}} }

func (c *memPointCache) GetPoint(d string) (ScenarioPoint, bool) {
	pt, ok := c.m[d]
	if ok {
		c.hits++
	}
	return pt, ok
}

func (c *memPointCache) PutPoint(d string, pt ScenarioPoint) { c.m[d] = pt }

// assembleStreamJSON splices a streamed header and point frames into the
// batch wire form the way the service does: the header object minus its
// closing brace, a points array of the marshalled points, done.
func assembleStreamJSON(t *testing.T, hdr *ScenarioHeader, pts [][]byte) []byte {
	t.Helper()
	hj, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.Write(hj[:len(hj)-1])
	b.WriteString(`,"points":[`)
	for i, p := range pts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(p)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// TestScenarioStreamMatchesBatch is the refactor's core property: for
// every output kind, the streamed point sequence concatenates to the
// batch result's wire JSON byte-for-byte, across different engine
// widths.
func TestScenarioStreamMatchesBatch(t *testing.T) {
	const ranks = 4
	specs := map[string]Scenario{
		"traffic": {
			App: scenarioApp(), Ranks: ranks, Platform: scenarioPlatform(t, ranks),
			Flavors: []Flavor{FlavorBase, FlavorReal},
			Axes:    []Axis{BandwidthAxis(125, 500), MappingAxis("block", "rr")},
			Output:  OutputTraffic,
		},
		"finish": {
			App: scenarioApp(), Ranks: ranks, Platform: scenarioPlatform(t, ranks),
			Axes:   []Axis{ChunksAxis(2, 4)},
			Output: OutputFinish,
		},
		"whatif": {
			App: scenarioApp(), Ranks: ranks, Platform: scenarioPlatform(t, ranks),
			Axes:   []Axis{BandwidthAxis(125, 500)},
			Output: OutputWhatIf,
		},
		"report": {
			App: scenarioApp(), Ranks: ranks, Platform: scenarioPlatform(t, ranks),
			Axes:   []Axis{BandwidthAxis(125, 500)},
			Output: OutputReport,
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			batch, err := RunScenario(context.Background(), engine.New(4), spec)
			if err != nil {
				t.Fatal(err)
			}
			batchJSON, err := json.Marshal(batch)
			if err != nil {
				t.Fatal(err)
			}
			var pts [][]byte
			hdr, err := RunScenarioStream(context.Background(), engine.New(2), spec, func(pt ScenarioPoint) error {
				b, err := json.Marshal(pt)
				if err != nil {
					return err
				}
				pts = append(pts, b)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if hdr.GridPoints != len(pts) {
				t.Fatalf("header says %d grid points, stream yielded %d", hdr.GridPoints, len(pts))
			}
			if got := assembleStreamJSON(t, hdr, pts); !bytes.Equal(got, batchJSON) {
				t.Fatalf("stream concatenation differs from batch wire JSON:\n%s\n%s", got, batchJSON)
			}
		})
	}
}

// TestScenarioStreamFormatIncremental: feeding the stream through a
// ScenarioPrinter reproduces the batch Format byte-for-byte.
func TestScenarioStreamFormatIncremental(t *testing.T) {
	const ranks = 4
	spec := Scenario{
		App: scenarioApp(), Ranks: ranks, Platform: scenarioPlatform(t, ranks),
		Axes:   []Axis{BandwidthAxis(125, 500), MappingAxis("block", "rr")},
		Output: OutputTraffic,
	}
	batch, err := RunScenario(context.Background(), engine.New(2), spec)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	var p *ScenarioPrinter
	_, err = RunScenarioStream(context.Background(), engine.New(2), spec, func(pt ScenarioPoint) error {
		if p == nil {
			hdr, err := spec.Header()
			if err != nil {
				return err
			}
			if p, err = NewScenarioPrinter(&b, hdr); err != nil {
				return err
			}
		}
		return p.Point(pt)
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != batch.Format() {
		t.Fatalf("incremental rendering differs from batch Format:\n%q\n%q", b.String(), batch.Format())
	}
}

// TestScenarioStreamCancel: cancelling mid-grid stops the stream
// promptly — no point is yielded after the cancellation, and the
// context's error comes back.
func TestScenarioStreamCancel(t *testing.T) {
	plat := scenarioPlatform(t, 8)
	spec := Scenario{
		Trace: testScenarioTrace(t), Platform: plat,
		Axes:   []Axis{BandwidthAxis(125, 250, 500, 1000)},
		Output: OutputFinish,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yields := 0
	_, err := RunScenarioStream(ctx, engine.New(2), spec, func(pt ScenarioPoint) error {
		yields++
		cancel()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if yields != 1 {
		t.Fatalf("%d points yielded after a cancel on the first, want 1", yields)
	}
}

// TestScenarioZipAxes: zipped axes advance together as one grid
// dimension instead of entering the cross product — the golden
// expansion check — and zip participates in the spec digest.
func TestScenarioZipAxes(t *testing.T) {
	plat := scenarioPlatform(t, 8)
	zipped := Scenario{
		Trace: testScenarioTrace(t), Platform: plat,
		Axes: []Axis{
			{Kind: AxisBandwidth, Values: []float64{125, 250}, Zip: "net"},
			{Kind: AxisLatency, Values: []float64{1e-6, 2e-6}, Zip: "net"},
			MappingAxis("block", "rr"),
		},
		Output: OutputFinish,
	}
	if n := zipped.GridSize(); n != 4 {
		t.Fatalf("zipped grid has %d points, want 4 (2 zipped × 2 mappings)", n)
	}
	res, err := RunScenario(context.Background(), engine.New(2), zipped)
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]string{
		{"125", "1e-06", "block"},
		{"125", "1e-06", "rr"},
		{"250", "2e-06", "block"},
		{"250", "2e-06", "rr"},
	}
	if len(res.Points) != len(want) {
		t.Fatalf("%d points, want %d", len(res.Points), len(want))
	}
	for i, pt := range res.Points {
		for j, v := range want[i] {
			if pt.Coords[j].Value != v {
				t.Fatalf("point %d coords %v, want %v", i, pt.Coords, want[i])
			}
		}
	}

	cross := zipped
	cross.Axes = []Axis{
		BandwidthAxis(125, 250),
		LatencyAxis(1e-6, 2e-6),
		MappingAxis("block", "rr"),
	}
	if cross.GridSize() != 8 {
		t.Fatalf("cross grid has %d points, want 8", cross.GridSize())
	}
	dz, err := zipped.Digest()
	if err != nil {
		t.Fatal(err)
	}
	dc, err := cross.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if dz == dc {
		t.Fatal("zipped and cross-product specs share a digest")
	}

	// A zip that doesn't constrain the grid — a single-member group —
	// canonicalizes away: both spellings are the same study.
	solo := cross
	solo.Axes = []Axis{
		{Kind: AxisBandwidth, Values: []float64{125, 250}, Zip: "solo"},
		LatencyAxis(1e-6, 2e-6),
		MappingAxis("block", "rr"),
	}
	ds, err := solo.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if ds != dc {
		t.Fatalf("singleton zip group digests differently from plain axis: %s vs %s", ds, dc)
	}

	// Members of one group must have equal lengths.
	bad := zipped
	bad.Axes = []Axis{
		{Kind: AxisBandwidth, Values: []float64{125}, Zip: "net"},
		{Kind: AxisLatency, Values: []float64{1e-6, 2e-6}, Zip: "net"},
	}
	if _, err := RunScenario(context.Background(), nil, bad); err == nil || !strings.Contains(err.Error(), "mixes axis lengths") {
		t.Fatalf("unequal zip lengths: err %v, want length mismatch", err)
	}
}

// TestScenarioPointDigests: each streamed point carries the spec digest
// of the single-point scenario pinning its coordinate — the key
// overlapping grids meet at — so pinning the spec by hand reproduces
// it.
func TestScenarioPointDigests(t *testing.T) {
	plat := scenarioPlatform(t, 8)
	spec := Scenario{
		Trace: testScenarioTrace(t), Platform: plat,
		Axes:   []Axis{BandwidthAxis(125, 250), MappingAxis("block", "rr")},
		Output: OutputFinish,
	}
	res, err := RunScenario(context.Background(), engine.New(2), spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, pt := range res.Points {
		if pt.Digest == "" {
			t.Fatalf("point %d has no digest", i)
		}
		if seen[pt.Digest] {
			t.Fatalf("point %d reuses digest %s", i, pt.Digest)
		}
		seen[pt.Digest] = true
	}
	pinned := spec
	pinned.Axes = []Axis{BandwidthAxis(250), MappingAxis("block")}
	d, err := pinned.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d != res.Points[2].Digest {
		t.Fatalf("pinned spec digest %s, point carries %s", d, res.Points[2].Digest)
	}
}

// TestScenarioPointCacheResume: a spec whose grid overlaps an earlier
// run's reuses the cached points and simulates only the gap, and a full
// rerun simulates nothing — observable through engine job counters —
// while the results stay byte-identical to a cold run.
func TestScenarioPointCacheResume(t *testing.T) {
	plat := scenarioPlatform(t, 8)
	base := Scenario{
		Trace: testScenarioTrace(t), Platform: plat,
		Axes:   []Axis{BandwidthAxis(125, 250)},
		Output: OutputFinish,
	}
	cache := newMemPointCache()
	eng := engine.New(2)
	sub := base
	sub.PointCache = cache
	if _, err := RunScenario(context.Background(), eng, sub); err != nil {
		t.Fatal(err)
	}

	sup := base
	sup.Axes = []Axis{BandwidthAxis(125, 250, 500)}
	sup.PointCache = cache
	before := eng.Stats().Started
	got, err := RunScenario(context.Background(), eng, sup)
	if err != nil {
		t.Fatal(err)
	}
	if jobs := eng.Stats().Started - before; jobs != 1 {
		t.Fatalf("superset run started %d engine jobs, want 1 (only the 500 MB/s gap)", jobs)
	}

	cold := base
	cold.Axes = sup.Axes
	want, err := RunScenario(context.Background(), engine.New(2), cold)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("resumed result differs from cold run:\n%s\n%s", gb, wb)
	}

	// Full rerun: everything cached, zero new simulations.
	before = eng.Stats().Started
	again, err := RunScenario(context.Background(), eng, sup)
	if err != nil {
		t.Fatal(err)
	}
	if jobs := eng.Stats().Started - before; jobs != 0 {
		t.Fatalf("fully cached rerun started %d engine jobs, want 0", jobs)
	}
	ab, _ := json.Marshal(again)
	if !bytes.Equal(ab, wb) {
		t.Fatalf("cached rerun differs from cold run:\n%s\n%s", ab, wb)
	}
}
