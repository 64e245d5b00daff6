package core

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// TestScenarioDigestsPinned pins, as literals, the spec digests of a
// finish grid with a chunks axis, a report, a what-if, a trace-mode spec
// and a degraded platform, plus one point digest of the finish grid. A scenario's digest
// keys its cached result, its cached points and its cluster owner, so
// any change to the canonical spec bytes re-keys every stored study:
// it may only change on purpose, with these literals.
func TestScenarioDigestsPinned(t *testing.T) {
	app := App{Name: "cg", Kernel: func(*tracer.Proc) {}}
	mare, err := network.PlatformPreset("marenostrum-4x", 8)
	if err != nil {
		t.Fatal(err)
	}
	eight := tracer.DefaultConfig()
	eight.Chunks = 8
	tr := trace.New("tiny", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 1000})
	tr.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: 1, Bytes: 800, MsgID: 1})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 1, Bytes: 800, MsgID: 1})
	tr.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 500})
	stored, err := engine.NewStoredTrace(tr)
	if err != nil {
		t.Fatal(err)
	}

	finish := Scenario{
		App: app, Ranks: 8, Tracer: tracer.DefaultConfig(), Platform: mare,
		Flavors: []Flavor{FlavorBase, FlavorReal, FlavorIdeal},
		Axes:    []Axis{ChunksAxis(2, 8), BandwidthAxis(125, 250)},
		Output:  OutputFinish,
	}
	cases := []struct {
		name string
		spec Scenario
		want string
	}{
		{"finish-chunks", finish, "sha256:f98d5bde01ff885c003496114fc9072ea0f739c1f30bdcf7eb4d0ef8ae0432b2"},
		{"report", Scenario{
			App: app, Ranks: 4, Tracer: eight, Platform: network.TestbedFor("cg", 4),
			Output: OutputReport,
		}, "sha256:e01ba9b5205750d9132eaf133538bf642c9484627399dd0413b4b04772953744"},
		{"whatif", Scenario{
			App: app, Ranks: 8, Platform: mare,
			Axes:   []Axis{BandwidthAxis(125, 500)},
			Output: OutputWhatIf,
		}, "sha256:73934dd1ca0e048f461820f09381a486b26fc9b770227308c1cb977309072a08"},
		{"trace", Scenario{
			Trace: stored, Platform: network.Testbed(2),
			Axes: []Axis{LatencyAxis(0, 1e-5)},
		}, "sha256:3a7766c495e73f1891e0f43d5d47b72745904455f6096b70149edf3d4fae66e0"},
		{"degraded", Scenario{
			App: app, Ranks: 8,
			Platform: mare.WithDegradations(faults.Spec{DerateInter: 0.5, StragglerFactor: 3, Stragglers: 1}),
			Axes:     []Axis{JitterAxis(0, 0.2)},
		}, "sha256:e98d35c189c87fa235756f269923df0db85387be5f97dffddf25869f0e2c85bb"},
	}
	for _, tc := range cases {
		got, err := tc.spec.Digest()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}

	// The default tracer spells the same study as the zero value, and
	// its canonical bytes keep every field the canonical spec has always
	// carried.
	zero := finish
	zero.Tracer = tracer.Config{}
	if a, b := mustDigest(t, finish), mustDigest(t, zero); a != b {
		t.Errorf("default tracer digests %s, zero tracer %s", a, b)
	}
	canon, err := finish.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := `"tracer":{"Chunks":4,"ElemBytes":8,"LoadCost":1,"StoreCost":1}`; !strings.Contains(string(canon), want) {
		t.Errorf("canonical spec lacks %s:\n%s", want, canon)
	}

	keys, err := finish.PointKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("%d point keys, want 4", len(keys))
	}
	if got, want := keys[1].Digest, "sha256:964c0570bf227189828ccb3012e8aa0ccec473248c2afc283228b9347a1a11f3"; got != want {
		t.Errorf("point %v: digest %s, want %s", keys[1].Coords, got, want)
	}
}

func mustDigest(t *testing.T, s Scenario) string {
	t.Helper()
	d, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}
