package network

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidateAcceptsTestbed(t *testing.T) {
	if err := Testbed(64).Validate(); err != nil {
		t.Fatalf("testbed invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := Testbed(4)
	cases := []struct {
		name string
		mut  func(Platform) Platform
	}{
		{"zero processors", func(p Platform) Platform { p.Processors = 0; return p }},
		{"negative latency", func(p Platform) Platform { p.Inter.LatencySec = -1; return p }},
		{"zero bandwidth", func(p Platform) Platform { p.Inter.BandwidthMBps = 0; return p }},
		{"negative bandwidth", func(p Platform) Platform { p.Inter.BandwidthMBps = -3; return p }},
		{"negative buses", func(p Platform) Platform { p.Buses = -1; return p }},
		{"negative inports", func(p Platform) Platform { p.InPorts = -1; return p }},
		{"negative outports", func(p Platform) Platform { p.OutPorts = -2; return p }},
		{"zero mips", func(p Platform) Platform { p.MIPS = 0; return p }},
		{"zero speed", func(p Platform) Platform { p.RelativeSpeed = 0; return p }},
		{"negative congestion", func(p Platform) Platform { p.CongestionFactor = -1; return p }},
	}
	for _, tc := range cases {
		if err := tc.mut(base).Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestInfiniteBandwidthValidatesAndZeroesSerialization(t *testing.T) {
	p := Testbed(4).WithInterBandwidth(math.Inf(1))
	if err := p.Validate(); err != nil {
		t.Fatalf("infinite bandwidth platform invalid: %v", err)
	}
	if got := p.Inter.SerializationSec(1 << 30); got != 0 {
		t.Fatalf("serialization at infinite bandwidth = %g, want 0", got)
	}
	if got := p.Inter.TransferSec(1 << 30); got != p.Inter.LatencySec {
		t.Fatalf("transfer at infinite bandwidth = %g, want latency %g", got, p.Inter.LatencySec)
	}
}

func TestTransferSecLinearModel(t *testing.T) {
	l := Testbed(2).Inter
	// 250 MB/s, 1e6-scale: 250e6 bytes per second.
	got := l.TransferSec(250e6)
	want := l.LatencySec + 1.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TransferSec(250 MB)=%g, want %g", got, want)
	}
	if l.TransferSec(0) != l.LatencySec {
		t.Fatalf("zero-byte transfer should cost exactly the latency")
	}
}

func TestComputeSecScaling(t *testing.T) {
	p := Testbed(2)
	// 2300 MIPS: 2.3e9 instructions per second.
	k := p.Costs()
	if got := k.ComputeSec(2_300_000_000); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("ComputeSec(2.3e9)=%g, want 1.0", got)
	}
	p.RelativeSpeed = 2
	k = p.Costs()
	if got := k.ComputeSec(2_300_000_000); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ComputeSec at 2x speed=%g, want 0.5", got)
	}
}

func TestEagerThreshold(t *testing.T) {
	p := Testbed(2)
	p.EagerThresholdBytes = 1024
	k := p.Costs()
	if !k.Eager(1024) {
		t.Error("message at threshold should be eager")
	}
	if k.Eager(1025) {
		t.Error("message above threshold should be rendezvous")
	}
	p.EagerThresholdBytes = -1
	k = p.Costs()
	if !k.Eager(1 << 40) {
		t.Error("negative threshold must disable rendezvous")
	}
}

func TestWithHelpersDoNotMutateReceiver(t *testing.T) {
	p := Testbed(8)
	_ = p.WithInterBandwidth(10)
	_ = p.WithBuses(3)
	_ = p.WithProcessors(2)
	if p.Inter.BandwidthMBps != 250 || p.Buses != 0 || p.Processors != 8 {
		t.Fatal("With* helpers mutated the receiver")
	}
}

func TestTableIBusesMatchesPaper(t *testing.T) {
	want := map[string]int{"sweep3d": 12, "pop": 12, "alya": 11, "specfem3d": 8, "bt": 22, "cg": 6}
	if len(TableIBuses) != len(want) {
		t.Fatalf("TableIBuses has %d entries, want %d", len(TableIBuses), len(want))
	}
	for app, buses := range want {
		if TableIBuses[app] != buses {
			t.Errorf("TableIBuses[%q]=%d, want %d", app, TableIBuses[app], buses)
		}
	}
}

func TestTestbedFor(t *testing.T) {
	c := TestbedFor("cg", 64)
	if c.Buses != 6 || c.Processors != 64 || c.Nodes != 64 {
		t.Fatalf("TestbedFor(cg): buses=%d procs=%d nodes=%d, want 6/64/64", c.Buses, c.Processors, c.Nodes)
	}
	u := TestbedFor("unknown-app", 4)
	if u.Buses != 0 {
		t.Fatalf("unknown app should keep unlimited buses, got %d", u.Buses)
	}
}

func TestPropertyTransferMonotoneInSize(t *testing.T) {
	l := Testbed(2).Inter
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return l.TransferSec(x) <= l.TransferSec(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTransferMonotoneInBandwidth(t *testing.T) {
	f := func(sz uint32, bw1, bw2 uint16) bool {
		lo := float64(bw1%1000) + 1
		hi := lo + float64(bw2%1000) + 1
		fast := Testbed(2).WithInterBandwidth(hi).Inter
		slow := Testbed(2).WithInterBandwidth(lo).Inter
		return fast.TransferSec(int64(sz)) <= slow.TransferSec(int64(sz))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
