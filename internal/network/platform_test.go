package network

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestConfigPlatformDegenerate(t *testing.T) {
	cfg := TestbedFor("sweep3d", 16)
	p := cfg.Platform()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Nodes != cfg.Processors || p.MultiNode() {
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
		p := Testbed(ranks).Platform().WithNodes(nodes).WithMapping(tc.m)
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
	p := Testbed(10).Platform().WithNodes(4)
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
	base := Testbed(8).Platform().WithNodes(2)
	cases := []Platform{
		base.WithNodes(0),
		base.WithProcessors(0),
		func() Platform { p := base; p.Intra.BandwidthMBps = -1; return p }(),
		func() Platform { p := base; p.Inter.LatencySec = -1; return p }(),
		func() Platform { p := base; p.IntraBuses = -1; return p }(),
		base.WithMapping(ExplicitMapping([]int{0, 1})),                   // too short
		base.WithMapping(ExplicitMapping([]int{0, 1, 2, 3, 4, 5, 6, 7})), // node out of range
		base.WithMapping(Mapping{Kind: MappingKind(9)}),
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestPlatformJSONRoundTrip(t *testing.T) {
	orig, err := PlatformPreset("marenostrum-4x", 16)
	if err != nil {
		t.Fatal(err)
	}
	orig.Mapping = ExplicitMapping([]int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3})
	var sb strings.Builder
	if err := orig.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlatformJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, orig)
	}
}

func TestPlatformJSONInfiniteIntraBandwidth(t *testing.T) {
	orig := Testbed(4).Platform().WithNodes(2)
	orig.Intra.BandwidthMBps = math.Inf(1)
	var sb strings.Builder
	if err := orig.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlatformJSON(strings.NewReader(sb.String()))
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
	// Flat Config schema lifts to the degenerate platform.
	flat := TestbedFor("cg", 8)
	sb.Reset()
	if err := flat.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAnyPlatform(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, flat.Platform()) {
		t.Fatalf("flat schema: got %+v want %+v", got, flat.Platform())
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
		if _, err := ReadPlatformJSON(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %s", i, in)
		}
	}
}

func TestPlatformDescribe(t *testing.T) {
	flat := Testbed(4).Platform()
	if s := flat.Describe(); !strings.Contains(s, "flat") {
		t.Errorf("flat describe: %s", s)
	}
	hier, _ := PlatformPreset("marenostrum-4x", 16)
	if s := hier.Describe(); !strings.Contains(s, "intra") || !strings.Contains(s, "map block") {
		t.Errorf("hierarchical describe: %s", s)
	}
}
