package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// burstTrace makes n/2 senders fire simultaneously at n/2 receivers.
func burstTrace(pairs int, bytes int64) *trace.Trace {
	tr := trace.New("burst", "base", 2*pairs)
	for i := 0; i < pairs; i++ {
		tr.Append(i, trace.Record{Kind: trace.KindISend, Peer: pairs + i, Tag: 0, Bytes: bytes})
		tr.Append(pairs+i, trace.Record{Kind: trace.KindRecv, Peer: i, Tag: 0, Bytes: bytes})
	}
	return tr
}

func TestCongestionSlowsLoadedNetwork(t *testing.T) {
	cfg := testCfg(8)
	cfg.Buses = 2
	cfg.InPorts = 0
	cfg.OutPorts = 0
	tr := burstTrace(4, 500_000)
	clean, err := Run(cfg.Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CongestionFactor = 1.0
	congested, err := Run(cfg.Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if congested.FinishSec <= clean.FinishSec {
		t.Fatalf("congestion had no effect: %g vs %g", congested.FinishSec, clean.FinishSec)
	}
}

func TestCongestionNoEffectOnSerialTraffic(t *testing.T) {
	// A single message can never exceed the bus pool.
	cfg := testCfg(2)
	cfg.Buses = 2
	tr := burstTrace(1, 500_000)
	clean, err := Run(cfg.Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CongestionFactor = 2.0
	same, err := Run(cfg.Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !near(clean.FinishSec, same.FinishSec) {
		t.Fatalf("congestion changed uncongested run: %g vs %g", clean.FinishSec, same.FinishSec)
	}
}

func TestCongestionRequiresFiniteBuses(t *testing.T) {
	cfg := testCfg(8)
	cfg.Buses = 0 // unlimited: extension disabled by definition
	cfg.CongestionFactor = 5
	tr := burstTrace(4, 500_000)
	res, err := Run(cfg.Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.CongestionFactor = 0
	res2, err := Run(cfg2.Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.FinishSec, res2.FinishSec) {
		t.Fatal("congestion applied without a bus pool")
	}
}

func TestNegativeCongestionRejected(t *testing.T) {
	cfg := testCfg(2)
	cfg.CongestionFactor = -1
	if _, err := Run(cfg.Platform(), trace.New("t", "base", 1)); err == nil {
		t.Fatal("negative congestion factor accepted")
	}
}

func TestPropertyCongestionMonotone(t *testing.T) {
	tr := burstTrace(6, 200_000)
	f := func(a uint8) bool {
		lo := float64(a%5) / 2
		hi := lo + 1
		cfg := testCfg(12)
		cfg.Buses = 2
		cfg.CongestionFactor = lo
		r1, err1 := Run(cfg.Platform(), tr)
		cfg.CongestionFactor = hi
		r2, err2 := Run(cfg.Platform(), tr)
		if err1 != nil || err2 != nil {
			return false
		}
		return r2.FinishSec >= r1.FinishSec-eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
