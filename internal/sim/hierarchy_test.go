package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/trace"
)

// testPlatform returns a multi-node platform with a markedly faster intra
// link, constrained enough (ports, buses) to exercise every resource pool.
func testPlatform(procs, nodes int) network.Platform {
	p := flatPlatform(procs).WithNodes(nodes)
	p.Intra = network.Link{LatencySec: 0.5e-6, BandwidthMBps: 5000}
	p.IntraBuses = 2
	p.Inter = network.Link{LatencySec: 10e-6, BandwidthMBps: 100}
	p.Buses = 4
	p.InPorts = 1
	p.OutPorts = 1
	return p
}

// TestFlatPlatformEquivalence is the refactor's keystone property: a
// platform with one rank per node and identical intra/inter link
// parameters must reproduce the flat model's Result byte for byte — same
// finish, same intervals, same per-rank stats, same comm timestamps.
func TestFlatPlatformEquivalence(t *testing.T) {
	cfgs := []network.Platform{
		flatPlatform(8),
		func() network.Platform { c := flatPlatform(8); c.Buses = 3; c.InPorts = 1; c.OutPorts = 1; return c }(),
		func() network.Platform { c := flatPlatform(8); c.EagerThresholdBytes = 10_000; return c }(),
		func() network.Platform { c := flatPlatform(8); c.Buses = 2; c.CongestionFactor = 1.5; return c }(),
	}
	mappings := []network.Mapping{network.BlockMapping(), network.RoundRobinMapping()}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomBalancedTrace(rng, 3+rng.Intn(5), 30+rng.Intn(40))
		for ci, cfg := range cfgs {
			flat, err := Run(cfg, tr)
			if err != nil {
				t.Logf("cfg %d flat replay: %v", ci, err)
				return false
			}
			for _, m := range mappings {
				// One rank per node: both mappings are bijections, and
				// intra==inter by construction of flatPlatform.
				p := cfg.WithMapping(m)
				hier, err := Run(p, tr)
				if err != nil {
					t.Logf("cfg %d mapping %s: %v", ci, m, err)
					return false
				}
				if !reflect.DeepEqual(flat, hier) {
					t.Logf("cfg %d mapping %s: results diverge (finish %g vs %g)",
						ci, m, flat.FinishSec, hier.FinishSec)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchyConservation: under any mapping, the replay must neither
// create nor destroy traffic, and every message must be classified into
// exactly one link class.
func TestHierarchyConservation(t *testing.T) {
	mappings := []network.Mapping{
		network.BlockMapping(),
		network.RoundRobinMapping(),
		network.ExplicitMapping([]int{1, 1, 0, 0, 1, 0, 0, 1}),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomBalancedTrace(rng, 3+rng.Intn(6), 30+rng.Intn(40))
		st := tr.Stats()
		for _, m := range mappings {
			p := testPlatform(8, 2).WithMapping(m)
			res, err := Run(p, tr)
			if err != nil {
				t.Logf("mapping %s: %v", m, err)
				return false
			}
			var bytes int64
			var msgs int
			for r := range res.Ranks {
				bytes += res.Ranks[r].BytesSent
				msgs += res.Ranks[r].MsgsSent
			}
			if bytes != st.BytesSent || msgs != st.Messages {
				t.Logf("mapping %s: sent %d B/%d msgs, trace has %d B/%d msgs", m, bytes, msgs, st.BytesSent, st.Messages)
				return false
			}
			ib, eb, im, em := res.TrafficSplit()
			if ib+eb != st.BytesSent || im+em != st.Messages {
				t.Logf("mapping %s: split %d+%d B / %d+%d msgs does not cover the trace", m, ib, eb, im, em)
				return false
			}
			// The classification must agree with the mapping itself.
			for _, c := range res.Comms {
				if c.Intra != (p.NodeOf(c.Src) == p.NodeOf(c.Dst)) {
					t.Logf("mapping %s: comm %d->%d misclassified intra=%v", m, c.Src, c.Dst, c.Intra)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchyDeadlockFree: random balanced traces complete under every
// mapping policy and under tight resource bounds (1 bus, 1 port per
// class), including with rendezvous sends.
func TestHierarchyDeadlockFree(t *testing.T) {
	mappings := []network.Mapping{
		network.BlockMapping(),
		network.RoundRobinMapping(),
		network.ExplicitMapping([]int{2, 0, 1, 2, 0, 1, 2, 0}),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomBalancedTrace(rng, 3+rng.Intn(6), 30+rng.Intn(40))
		for _, m := range mappings {
			p := testPlatform(8, 3).WithMapping(m)
			p.IntraBuses = 1
			p.Buses = 1
			p.EagerThresholdBytes = 50_000 // large messages rendezvous
			if err := p.Validate(); err != nil {
				t.Logf("platform invalid: %v", err)
				return false
			}
			res, err := Run(p, tr)
			if err != nil {
				t.Logf("mapping %s deadlocked or failed: %v", m, err)
				return false
			}
			if res.FinishSec < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestMappingChangesElapsedTime: on a ring, block placement keeps most
// neighbour exchanges inside a node while round-robin forces every hop
// across the slow interconnect, so the two placements must produce
// measurably different makespans.
func TestMappingChangesElapsedTime(t *testing.T) {
	tr := ringTrace(8, 10, 100_000, 200_000)
	p := testPlatform(8, 2)
	block, err := Run(p.WithMapping(network.BlockMapping()), tr)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(p.WithMapping(network.RoundRobinMapping()), tr)
	if err != nil {
		t.Fatal(err)
	}
	if block.FinishSec >= rr.FinishSec {
		t.Fatalf("block placement (%g s) not faster than round-robin (%g s) on a ring with fast intra links",
			block.FinishSec, rr.FinishSec)
	}
	bi, _, _, _ := block.TrafficSplit()
	ri, _, _, _ := rr.TrafficSplit()
	if bi == 0 {
		t.Fatal("block placement produced no intra-node traffic on a ring")
	}
	if ri != 0 {
		t.Fatalf("round-robin on 2 nodes x 4 ranks should alternate nodes every hop, got %d intra bytes", ri)
	}
}

// TestIntraTransfersBypassInterconnect: with a single global bus and a
// single NIC port pair per node, concurrent intra-node transfers must not
// queue behind inter-node traffic.
func TestIntraTransfersBypassInterconnect(t *testing.T) {
	// Ranks 0,1 on node 0; ranks 2,3 on node 1. Rank 0 sends a huge
	// message to rank 2 (inter), then rank 1 sends to rank 0 (intra).
	tr := trace.New("bypass", "base", 4)
	tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 2, Tag: 1, Bytes: 10_000_000})
	tr.Append(2, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 1, Bytes: 10_000_000})
	tr.Append(1, trace.Record{Kind: trace.KindISend, Peer: 0, Tag: 2, Bytes: 1_000})
	tr.Append(0, trace.Record{Kind: trace.KindRecv, Peer: 1, Tag: 2, Bytes: 1_000})
	p := testPlatform(4, 2)
	p.Buses = 1
	res, err := Run(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	var intraMatch, interMatch float64
	for _, c := range res.Comms {
		if c.Intra {
			intraMatch = c.MatchT
		} else {
			interMatch = c.MatchT
		}
	}
	if intraMatch >= interMatch {
		t.Fatalf("intra-node transfer (match %g) queued behind the 10 MB inter-node transfer (match %g)",
			intraMatch, interMatch)
	}
}

// TestIntraBusPoolSerializes: two concurrent intra-node transfers on a
// 1-bus node must serialize, and relaxing the pool must restore overlap.
func TestIntraBusPoolSerializes(t *testing.T) {
	build := func() *trace.Trace {
		tr := trace.New("pair", "base", 4)
		tr.Append(0, trace.Record{Kind: trace.KindISend, Peer: 1, Tag: 1, Bytes: 5_000_000})
		tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 1, Bytes: 5_000_000})
		tr.Append(2, trace.Record{Kind: trace.KindISend, Peer: 3, Tag: 2, Bytes: 5_000_000})
		tr.Append(3, trace.Record{Kind: trace.KindRecv, Peer: 2, Tag: 2, Bytes: 5_000_000})
		return tr
	}
	p := testPlatform(4, 1) // all four ranks on one node
	p.IntraBuses = 1
	tight, err := Run(p, build())
	if err != nil {
		t.Fatal(err)
	}
	p.IntraBuses = 0 // unlimited
	loose, err := Run(p, build())
	if err != nil {
		t.Fatal(err)
	}
	if tight.FinishSec <= loose.FinishSec {
		t.Fatalf("1-bus intra pool (%g s) should be slower than unlimited (%g s)", tight.FinishSec, loose.FinishSec)
	}
}
