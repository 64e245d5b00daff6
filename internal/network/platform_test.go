package network

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/trace"
)

func TestTestbedDegenerate(t *testing.T) {
	p := TestbedFor("sweep3d", 16)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Nodes != p.Processors || p.MultiNode() {
		t.Fatalf("degenerate platform not one-rank-per-node: %+v", p)
	}
	if p.Intra != p.Inter {
		t.Fatalf("degenerate platform links differ: %+v vs %+v", p.Intra, p.Inter)
	}
	for r := 0; r < p.Processors; r++ {
		if p.NodeOf(r) != r {
			t.Fatalf("rank %d on node %d", r, p.NodeOf(r))
		}
	}
}

func TestMappingPolicies(t *testing.T) {
	const ranks, nodes = 8, 4
	cases := []struct {
		m    Mapping
		want []int
	}{
		{BlockMapping(), []int{0, 0, 1, 1, 2, 2, 3, 3}},
		{RoundRobinMapping(), []int{0, 1, 2, 3, 0, 1, 2, 3}},
		{ExplicitMapping([]int{3, 3, 3, 3, 0, 0, 0, 0}), []int{3, 3, 3, 3, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		p := Testbed(ranks).WithNodes(nodes).WithMapping(tc.m)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.m, err)
		}
		if got := p.NodeTable(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: node table %v want %v", tc.m, got, tc.want)
		}
		if !p.MultiNode() {
			t.Errorf("%s: MultiNode false on 2-ranks-per-node platform", tc.m)
		}
	}
}

func TestMappingBlockUnevenCoversAllRanks(t *testing.T) {
	// 10 ranks on 4 nodes: ceil(10/4)=3 per node, last node underfull.
	p := Testbed(10).WithNodes(4)
	counts := map[int]int{}
	for _, n := range p.NodeTable() {
		if n < 0 || n >= 4 {
			t.Fatalf("node %d out of range", n)
		}
		counts[n]++
	}
	if counts[0] != 3 || counts[3] != 1 {
		t.Fatalf("uneven block fill: %v", counts)
	}
}

func TestParseMapping(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mapping
	}{
		{"block", BlockMapping()},
		{"rr", RoundRobinMapping()},
		{"round-robin", RoundRobinMapping()},
		{"0,0,1,1", ExplicitMapping([]int{0, 0, 1, 1})},
	} {
		got, err := ParseMapping(tc.in)
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: got %+v want %+v", tc.in, got, tc.want)
		}
	}
	if _, err := ParseMapping("diagonal"); err == nil {
		t.Fatal("bad mapping accepted")
	}
}

func TestPlatformValidateRejects(t *testing.T) {
	base := Testbed(8).WithNodes(2)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		p    Platform
		want string // in the error; non-finite values must be named
	}{
		{base.WithNodes(0), ""},
		{base.WithProcessors(0), ""},
		{func() Platform { p := base; p.Intra.BandwidthMBps = -1; return p }(), ""},
		{func() Platform { p := base; p.Inter.LatencySec = -1; return p }(), ""},
		{func() Platform { p := base; p.IntraBuses = -1; return p }(), ""},
		{base.WithMapping(ExplicitMapping([]int{0, 1})), ""},                   // too short
		{base.WithMapping(ExplicitMapping([]int{0, 1, 2, 3, 4, 5, 6, 7})), ""}, // node out of range
		{base.WithMapping(Mapping{Kind: MappingKind(9)}), ""},
		{base.WithInterBandwidth(nan), "bandwidth NaN"},
		{base.WithInterLatency(nan), "latency NaN"},
		{base.WithInterLatency(inf), "latency +Inf"},
		{func() Platform { p := base; p.MIPS = nan; return p }(), "MIPS=NaN"},
		{func() Platform { p := base; p.MIPS = inf; return p }(), "MIPS=+Inf"},
		{func() Platform { p := base; p.RelativeSpeed = nan; return p }(), "RelativeSpeed=NaN"},
		{func() Platform { p := base; p.CongestionFactor = inf; return p }(), "CongestionFactor=+Inf"},
		{base.WithDerateInter(nan), "derate_inter NaN"},
		{base.WithJitter(inf), "jitter_frac +Inf"},
	}
	for i, tc := range cases {
		if err := tc.p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err %v, want one naming %q: %+v", i, err, tc.want, tc.p)
		}
	}
}

// TestPlatformJSONRoundTrip: a platform written with WriteJSON reads
// back through ReadAnyPlatform with the same digest, which is what lets
// a cluster member send a platform named by digest as its document.
// Every preset at 16 and 256 ranks, an explicit mapping, a degraded
// platform and +Inf intra bandwidth round-trip, and the explicit
// mapping reads back field for field.
func TestPlatformJSONRoundTrip(t *testing.T) {
	mapped, err := PlatformPreset("marenostrum-4x", 16)
	if err != nil {
		t.Fatal(err)
	}
	mapped.Mapping = ExplicitMapping([]int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3})
	infIntra := Testbed(4).WithNodes(2)
	infIntra.Intra.BandwidthMBps = math.Inf(1)
	cases := map[string]Platform{
		"explicit mapping": mapped,
		"degraded": mapped.WithDegradations(faults.Spec{
			DerateInter: 0.5, JitterFrac: 0.2, Stragglers: 2, StragglerFactor: 3,
			DownNodes: []int{3}, DownLinks: [][2]int{{0, 1}}, LinkDown: 2, Seed: 9,
		}),
		"+Inf intra bandwidth": infIntra,
	}
	for _, name := range PresetNames() {
		for _, ranks := range []int{16, 256} {
			p, err := PlatformPreset(name, ranks)
			if err != nil {
				t.Fatal(err)
			}
			cases[fmt.Sprintf("%s at %d ranks", name, ranks)] = p
		}
	}
	for name, orig := range cases {
		var sb strings.Builder
		if err := orig.WriteJSON(&sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadAnyPlatform(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := orig.Digest()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d, err := got.Digest(); err != nil || d != want {
			t.Fatalf("%s: read back with digest %s (%v), wrote %s", name, d, err, want)
		}
		if name == "explicit mapping" && !reflect.DeepEqual(got, orig) {
			t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, orig)
		}
	}
}

func TestPlatformJSONInfiniteIntraBandwidth(t *testing.T) {
	orig := Testbed(4).WithNodes(2)
	orig.Intra.BandwidthMBps = math.Inf(1)
	var sb strings.Builder
	if err := orig.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := readPlatformJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Intra.BandwidthMBps, 1) {
		t.Fatalf("intra bandwidth lost: %v", got.Intra.BandwidthMBps)
	}
}

func TestReadAnyPlatformAcceptsBothSchemas(t *testing.T) {
	// Hierarchical schema.
	hier, _ := PlatformPreset("fatnode-smp", 32)
	var sb strings.Builder
	if err := hier.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAnyPlatform(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, hier) {
		t.Fatalf("hierarchical schema: got %+v want %+v", got, hier)
	}
	// The flat schema reads as the one-rank-per-node platform.
	got, err = ReadAnyPlatform(strings.NewReader(flatCG8))
	if err != nil {
		t.Fatal(err)
	}
	if want := TestbedFor("cg", 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("flat schema: got %+v want %+v", got, want)
	}
}

func TestReadPlatformJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		``,
		`{"nodes": 2}`, // missing everything else
		`{"processors": 4, "nodes": 2, "mapping": "diagonal", "intra": {"latency_sec":0,"bandwidth_mbps":1}, "inter": {"latency_sec":0,"bandwidth_mbps":1}, "mips": 1, "relative_speed": 1}`,
		`{"processors": 4, "nodes": 2, "mapping": 7, "intra": {"latency_sec":0,"bandwidth_mbps":1}, "inter": {"latency_sec":0,"bandwidth_mbps":1}, "mips": 1, "relative_speed": 1}`,
		`{"processors": 4, "nodes": 2, "intra": {"latency_sec":0,"bandwidth_mbps":"fast"}, "inter": {"latency_sec":0,"bandwidth_mbps":1}, "mips": 1, "relative_speed": 1}`,
	}
	for i, in := range cases {
		if _, err := readPlatformJSON(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %s", i, in)
		}
	}
}

func TestPlatformDescribe(t *testing.T) {
	flat := Testbed(4)
	if s := flat.Describe(); !strings.Contains(s, "flat") {
		t.Errorf("flat describe: %s", s)
	}
	hier, _ := PlatformPreset("marenostrum-4x", 16)
	if s := hier.Describe(); !strings.Contains(s, "intra") || !strings.Contains(s, "map block") {
		t.Errorf("hierarchical describe: %s", s)
	}
}

// TestPlatformBounds: every preset and Table I testbed fits the pool cap
// at trace.MaxRanks processors, and one processor, node or pool unit past
// a bound fails, however large the counts.
func TestPlatformBounds(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := PlatformPreset(name, trace.MaxRanks)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s at %d processors: %v", name, trace.MaxRanks, err)
		}
	}
	for app := range TableIBuses {
		if err := TestbedFor(app, trace.MaxRanks).Validate(); err != nil {
			t.Errorf("%s testbed at %d processors: %v", app, trace.MaxRanks, err)
		}
	}
	base := Testbed(8) // 8 nodes × (1 in + 1 out port) = 16 pool units
	if err := base.WithBuses(MaxPoolUnits - 16).Validate(); err != nil {
		t.Errorf("pools at the cap: %v", err)
	}
	ports := base
	ports.InPorts, ports.OutPorts = math.MaxInt, math.MaxInt
	for name, p := range map[string]Platform{
		"processors": Testbed(trace.MaxRanks + 1),
		"nodes":      Testbed(trace.MaxRanks).WithNodes(trace.MaxRanks + 1),
		"buses":      base.WithBuses(MaxPoolUnits - 15),
		"max buses":  base.WithBuses(math.MaxInt),
		"max ports":  ports,
	} {
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "at most") && !strings.Contains(err.Error(), "pool units") {
			t.Errorf("%s: err %v, want a bound", name, err)
		}
	}
}

// TestLinkErrorsNameTheirClass: a link error starts with the package
// prefix once and names the link class only where the document has two.
func TestLinkErrorsNameTheirClass(t *testing.T) {
	hier := func(edit func(p *Platform)) []byte {
		p := Testbed(8).WithNodes(2)
		edit(&p)
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		doc  []byte
		want string
	}{
		{[]byte(strings.Replace(flatCG8, `"latency_sec": 0.000008`, `"latency_sec": -1`, 1)),
			"network: negative link latency -1"},
		{hier(func(p *Platform) { p.Intra.LatencySec = -1 }),
			"network: negative intra link latency -1"},
		{hier(func(p *Platform) { p.Inter.BandwidthMBps = 0 }),
			"network: inter link bandwidth 0 MB/s, must be positive or +Inf"},
	}
	for _, tc := range cases {
		_, err := ReadAnyPlatform(bytes.NewReader(tc.doc))
		if err == nil || err.Error() != tc.want {
			t.Errorf("err %v, want %q", err, tc.want)
		}
	}
}
