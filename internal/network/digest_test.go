package network

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestPlatformDigestStable(t *testing.T) {
	p := Testbed(8)
	d1, err := p.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Testbed(8).Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest not deterministic: %s vs %s", d1, d2)
	}
	if !strings.HasPrefix(d1, "sha256:") || len(d1) != len("sha256:")+64 {
		t.Fatalf("malformed digest %q", d1)
	}
}

// TestPlatformDigestCanonicalizesMapping checks that equivalent mapping
// spellings digest equal: the digest addresses the placement, not how the
// request spelled it.
func TestPlatformDigestCanonicalizesMapping(t *testing.T) {
	base, err := PlatformPreset("marenostrum-4x", 8)
	if err != nil {
		t.Fatal(err)
	}
	block := base.WithMapping(BlockMapping())
	explicit := base.WithMapping(ExplicitMapping(block.NodeTable()))
	db, err := block.Digest()
	if err != nil {
		t.Fatal(err)
	}
	de, err := explicit.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if db != de {
		t.Fatalf("equivalent placements digest differently: %s vs %s", db, de)
	}
	rr := base.WithMapping(RoundRobinMapping())
	dr, err := rr.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if dr == db {
		t.Fatal("round-robin digests equal to block")
	}
}

func TestPlatformDigestDistinguishes(t *testing.T) {
	base := Testbed(8)
	ref, err := base.Digest()
	if err != nil {
		t.Fatal(err)
	}
	variants := []Platform{
		base.WithInterBandwidth(base.Inter.BandwidthMBps * 2),
		base.WithBuses(base.Buses + 1),
		base.WithProcessors(16).WithNodes(16),
	}
	for i, v := range variants {
		d, err := v.Digest()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if d == ref {
			t.Errorf("variant %d digests equal to the reference", i)
		}
	}
}

// TestPlatformDigestInfiniteBandwidth checks the ideal preset (infinite
// bandwidth) digests cleanly through the "inf" encoding.
func TestPlatformDigestInfiniteBandwidth(t *testing.T) {
	p, err := PlatformPreset("ideal", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Inter.BandwidthMBps, 1) {
		t.Fatal("ideal preset lost its infinite bandwidth")
	}
	b, err := p.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"inf"`)) {
		t.Fatalf("canonical JSON does not encode infinity: %s", b)
	}
	if _, err := p.Digest(); err != nil {
		t.Fatal(err)
	}
}

func TestPlatformDigestRejectsInvalid(t *testing.T) {
	var p Platform
	if _, err := p.Digest(); err == nil {
		t.Fatal("zero platform digested without error")
	}
}

// flatCG8 is TestbedFor("cg", 8) in the flat file schema, byte for byte
// as the flat platform writer of earlier releases wrote it.
const flatCG8 = `{
  "processors": 8,
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

// TestPlatformIdentityPinned pins the digests of the built-in platforms
// and of a flat file. The service keys every cached spec by its
// platform's digest, so a change to any builder, default or to the
// canonical form shows here before it silently re-keys every cache.
func TestPlatformIdentityPinned(t *testing.T) {
	presets := map[int]map[string]string{
		16: {
			"fatnode-smp":    "sha256:830d6524502a6198e2ea10917ceccb2144ad5393174a308c6697118540e7f5f8",
			"gige":           "sha256:2dd0d2150e1033df336929c50ee85651ab860f15696e7ecfc965b3ceebd35057",
			"ib-qdr":         "sha256:ad4a2d57bbf6a7849b845a58d255b190cb5ba74bc4f4d5c4e97dc9b3de5c692e",
			"ib-qdr-4x":      "sha256:45b0cf73ba393809ce6681bae4012d0a276e4f116e4b377743a16b5ec0f8f83c",
			"ideal":          "sha256:62952d3f58bbb990b43aa776eb0a6b44df0d86d5d569339f480015f3f730644f",
			"marenostrum":    "sha256:cc81b2a007fc765678e63420bc0730a7d2f6710dc79c80a14cbddf48de1dad69",
			"marenostrum-4x": "sha256:421802abff94dae3ef237fb5c95116a772950f2d1c834ea27705ac3e90de4281",
		},
		256: {
			"fatnode-smp":    "sha256:d8d8f3040f5ce0cbbf38e05bd37e3a72ce3cbb5e6d0fcd7cfd160e03713fe665",
			"gige":           "sha256:88ab7b8a686f07df2546a7e808c01896434b64df268dc68de83e62584a9f5dea",
			"ib-qdr":         "sha256:2e036212d606fd3e884c216f765edca3b536adba6dc296ca6919b19bf8005bac",
			"ib-qdr-4x":      "sha256:64ce0a594f9d35f62032d18b760b1637a369fee28c60a3a481323675fd854f75",
			"ideal":          "sha256:7b9aa2d15d8d36ba1828d106698d6ac6a8afb4d7881a6f2c64d32e982b8fb559",
			"marenostrum":    "sha256:069638a9296932afed2662a2d79ae11154edaf47e508b11f4297b8aa69c542df",
			"marenostrum-4x": "sha256:6c7d653c239078cd3d48603fc484c1077fa545e499f7fdabe3d892e475649c8d",
		},
	}
	testbeds := map[string]string{
		"alya":      "sha256:628314133ead8a0f954c4d8d00fa240f3681a16ae495eb00bd38de35ef95d1c4",
		"bt":        "sha256:4705296495f6bcc21e74927468049fd40768fbd9a668bccb258ab554471ced80",
		"cg":        "sha256:a8941db1043d45ecc81376ee82869e041b7fd0188f0aa7de2aabbe5a8584122d",
		"pop":       "sha256:bf4c9349351a8ec45abc889856faa75b13ee24c8f3be10a147df90c431577ae4",
		"specfem3d": "sha256:4ac5807c0a5ba2e382d6e2ad39074b8c83804a268d49e253bd1bba6e198db5ff",
		"sweep3d":   "sha256:bf4c9349351a8ec45abc889856faa75b13ee24c8f3be10a147df90c431577ae4",
	}
	const flatDoc = "sha256:f99bad608f35bac59a2d1d309fbd795555af05e25dbb7e7384685fc27aee4580"

	check := func(what string, p Platform, want string) {
		t.Helper()
		got, err := p.Digest()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got != want {
			t.Errorf("%s digest %s, want %s", what, got, want)
		}
	}
	for ranks, byName := range presets {
		if len(byName) != len(PresetNames()) {
			t.Fatalf("%d pinned presets, %d exist", len(byName), len(PresetNames()))
		}
		for name, want := range byName {
			p, err := PlatformPreset(name, ranks)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("preset %s/%d", name, ranks), p, want)
		}
	}
	if len(testbeds) != len(TableIBuses) {
		t.Fatalf("%d pinned testbeds, Table I has %d apps", len(testbeds), len(TableIBuses))
	}
	for app, want := range testbeds {
		check("TestbedFor("+app+", 64)", TestbedFor(app, 64), want)
	}
	p, err := ReadAnyPlatform(strings.NewReader(flatCG8))
	if err != nil {
		t.Fatal(err)
	}
	check("flat file", p, flatDoc)
	check("TestbedFor(cg, 8)", TestbedFor("cg", 8), flatDoc)
}
