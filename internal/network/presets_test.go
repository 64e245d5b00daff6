package network

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestPresetsAllValid(t *testing.T) {
	// Every listed name must resolve through PlatformPreset and validate;
	// the name list and the builders live in one table, so this also
	// proves they cannot drift.
	for _, name := range PresetNames() {
		p, err := PlatformPreset(name, 16)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
		if p.Processors != 16 {
			t.Fatalf("%s: processors=%d", name, p.Processors)
		}
		if desc := PresetDescriptions()[name]; desc == "" {
			t.Fatalf("%s: no description", name)
		}
		// A single-link preset is the one-rank-per-node platform.
		if !p.MultiNode() && (p.Nodes != p.Processors || p.Intra != p.Inter) {
			t.Fatalf("%s: flat preset not one-rank-per-node on one link: %+v", name, p)
		}
	}
}

func TestPresetHierarchicalShapes(t *testing.T) {
	for _, tc := range []struct {
		name         string
		procs, nodes int
		intraFaster  bool
	}{
		{"marenostrum-4x", 16, 4, true},
		{"fatnode-smp", 64, 4, true},
	} {
		p, err := PlatformPreset(tc.name, tc.procs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.Nodes != tc.nodes {
			t.Errorf("%s: nodes=%d want %d", tc.name, p.Nodes, tc.nodes)
		}
		if !p.MultiNode() {
			t.Errorf("%s: not multi-node", tc.name)
		}
		if tc.intraFaster && !(p.Intra.BandwidthMBps > p.Inter.BandwidthMBps && p.Intra.LatencySec < p.Inter.LatencySec) {
			t.Errorf("%s: intra link not faster than inter: %+v vs %+v", tc.name, p.Intra, p.Inter)
		}
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := PlatformPreset("quantum-entangled", 4); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestPresetOrdering(t *testing.T) {
	link := func(name string) Link {
		p, err := PlatformPreset(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		return p.Inter
	}
	mn, qdr, qdr4, ge := link("marenostrum"), link("ib-qdr"), link("ib-qdr-4x"), link("gige")
	if !(qdr4.BandwidthMBps > qdr.BandwidthMBps && qdr.BandwidthMBps > mn.BandwidthMBps && mn.BandwidthMBps > ge.BandwidthMBps) {
		t.Fatal("preset bandwidth ordering broken")
	}
	if qdr.LatencySec >= mn.LatencySec {
		t.Fatal("InfiniBand latency should beat Myrinet-era latency")
	}
	if ideal := link("ideal"); !math.IsInf(ideal.BandwidthMBps, 1) || ideal.LatencySec != 0 {
		t.Fatalf("ideal preset: %+v", ideal)
	}
}

// flatCG64 is TestbedFor("cg", 64) in the flat file schema.
const flatCG64 = `{
  "processors": 64,
  "latency_sec": 0.000008,
  "bandwidth_mbps": 250,
  "buses": 6,
  "in_ports": 1,
  "out_ports": 1,
  "mips": 2300,
  "eager_threshold_bytes": -1,
  "relative_speed": 1
}
`

// TestJSONRoundTrip reads a flat file into its one-rank-per-node
// platform and round-trips that platform through the hierarchical
// schema unchanged.
func TestJSONRoundTrip(t *testing.T) {
	want := TestbedFor("cg", 64)
	got, err := ReadAnyPlatform(strings.NewReader(flatCG64))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flat read: got %+v want %+v", got, want)
	}
	var sb strings.Builder
	if err := got.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAnyPlatform(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("round trip: got %+v want %+v", back, want)
	}
}

func TestJSONRoundTripInfiniteBandwidth(t *testing.T) {
	in := strings.Replace(flatCG64, `"bandwidth_mbps": 250`, `"bandwidth_mbps": "inf"`, 1)
	p, err := ReadAnyPlatform(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Intra.BandwidthMBps, 1) || !math.IsInf(p.Inter.BandwidthMBps, 1) {
		t.Fatalf("flat read lost infinite bandwidth: %+v %+v", p.Intra, p.Inter)
	}
	var sb strings.Builder
	if err := p.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"inf"`) {
		t.Fatalf("infinite bandwidth not encoded as string:\n%s", sb.String())
	}
	got, err := ReadAnyPlatform(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Inter.BandwidthMBps, 1) {
		t.Fatalf("bandwidth lost: %v", got.Inter.BandwidthMBps)
	}
}

// TestReadJSONRejectsBadInput feeds ReadAnyPlatform flat-schema
// documents (no "nodes" key) that must not decode.
func TestReadJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`{"bandwidth_mbps": "fast"}`,
		`{"processors": 2, "latency_sec": 0, "mips": 100, "relative_speed": 1}`, // missing bandwidth
		`{"processors": 2, "latency_sec": 0, "bandwidth_mbps": 100, "mips": 0, "relative_speed": 1}`,
		`{"processors": 2, "bandwidth_mbps": 100, "mips": 100, "relative_speed": 1, "unknown_field": 3}`,
		`{"processors": 2, "bandwidth_mbps": true, "mips": 100, "relative_speed": 1}`,
		`{"processors": 2, "latency_sec": -1, "bandwidth_mbps": 100, "mips": 100, "relative_speed": 1}`,
		`{"processors": 2, "bandwidth_mbps": 100, "mips": 100, "relative_speed": 1, "congestion_factor": 1.5}`,
		`{"processors": 0, "bandwidth_mbps": 100, "mips": 100, "relative_speed": 1}`,
	}
	for i, in := range cases {
		if _, err := ReadAnyPlatform(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %s", i, in)
		}
	}
}
