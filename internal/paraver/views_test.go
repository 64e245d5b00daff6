package paraver

import (
	"math"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ringResult simulates a small ring exchange for the view tests.
func ringResult(t *testing.T, ranks, iters int) *sim.Result {
	t.Helper()
	tr := trace.New("ring", "base", ranks)
	for it := 0; it < iters; it++ {
		for r := 0; r < ranks; r++ {
			next := (r + 1) % ranks
			prev := (r - 1 + ranks) % ranks
			tr.Append(r, trace.Record{Kind: trace.KindCompute, Instr: 1_000_000})
			tr.Append(r, trace.Record{Kind: trace.KindISend, Peer: next, Tag: it, Bytes: 10_000})
			tr.Append(r, trace.Record{Kind: trace.KindRecv, Peer: prev, Tag: it, Bytes: 10_000})
		}
	}
	res, err := sim.Run(testPlatform(ranks), tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCommMatrixOf(t *testing.T) {
	res := ringResult(t, 4, 3)
	m := CommMatrixOf(res)
	if m.Ranks != 4 {
		t.Fatalf("ranks=%d", m.Ranks)
	}
	for r := 0; r < 4; r++ {
		next := (r + 1) % 4
		if m.Messages[r][next] != 3 || m.Bytes[r][next] != 30_000 {
			t.Fatalf("ring edge %d->%d: %d msgs %d B", r, next, m.Messages[r][next], m.Bytes[r][next])
		}
		if m.Bytes[r][r] != 0 {
			t.Fatalf("self traffic on %d", r)
		}
	}
	if m.TotalBytes() != 4*3*10_000 {
		t.Fatalf("total=%d", m.TotalBytes())
	}
}

func TestCommMatrixFormat(t *testing.T) {
	res := ringResult(t, 4, 2)
	out := CommMatrixOf(res).Format()
	if !strings.Contains(out, "communication matrix") || !strings.Contains(out, "P0") {
		t.Fatalf("format:\n%s", out)
	}
	if !strings.ContainsAny(out, ".#+") {
		t.Fatalf("no density glyphs:\n%s", out)
	}
}

func TestWaitHistogram(t *testing.T) {
	res := ringResult(t, 4, 3)
	h := WaitHistogram(res, 5)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	waits := 0
	for _, iv := range res.Intervals {
		if iv.State == sim.StateWaitRecv {
			waits++
		}
	}
	if total != waits {
		t.Fatalf("histogram holds %d samples, want %d", total, waits)
	}
	if len(h.Edges) != 6 {
		t.Fatalf("edges=%d", len(h.Edges))
	}
	out := h.Format()
	if !strings.Contains(out, "wait durations") {
		t.Fatalf("format:\n%s", out)
	}
}

// TestHistogramUniform: equal samples, which leave no range to split,
// all land in one bin.
func TestHistogramUniform(t *testing.T) {
	h := histogramOf("x", []float64{10240, 10240, 10240, 10240}, 3)
	nonzero := 0
	for _, c := range h.Counts {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("uniform samples spread over %d bins", nonzero)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := histogramOf("x", nil, 4)
	if out := h.Format(); !strings.Contains(out, "no samples") {
		t.Fatalf("empty histogram format:\n%s", out)
	}
}

func TestEfficiencySlices(t *testing.T) {
	res := ringResult(t, 4, 3)
	slices := EfficiencySlices(res, 10)
	if len(slices) != 10 {
		t.Fatalf("slices=%d", len(slices))
	}
	var sum float64
	for _, e := range slices {
		if e < 0 || e > 1 {
			t.Fatalf("efficiency out of range: %v", slices)
		}
		sum += e
	}
	// Overall efficiency must match the profile's compute share.
	p := ProfileOf(res)
	if math.Abs(sum/10-p.ComputeShare) > 0.06 {
		t.Fatalf("slice mean %.3f vs profile %.3f", sum/10, p.ComputeShare)
	}
	out := FormatEfficiency(slices)
	if !strings.Contains(out, "overall") {
		t.Fatalf("efficiency format:\n%s", out)
	}
}

func TestEfficiencySlicesDegenerate(t *testing.T) {
	if got := EfficiencySlices(&sim.Result{}, 5); len(got) != 5 {
		t.Fatal("empty result must still return slices")
	}
	if out := FormatEfficiency(nil); !strings.Contains(out, "|") {
		t.Fatal("empty slices format")
	}
}

// hierRingResult simulates the same ring on a 2-node platform so both
// traffic classes appear.
func hierRingResult(t *testing.T, ranks int) *sim.Result {
	t.Helper()
	tr := trace.New("ring", "base", ranks)
	for r := 0; r < ranks; r++ {
		next := (r + 1) % ranks
		prev := (r - 1 + ranks) % ranks
		tr.Append(r, trace.Record{Kind: trace.KindCompute, Instr: 1_000_000})
		tr.Append(r, trace.Record{Kind: trace.KindISend, Peer: next, Tag: 0, Bytes: 10_000})
		tr.Append(r, trace.Record{Kind: trace.KindRecv, Peer: prev, Tag: 0, Bytes: 10_000})
	}
	p := testPlatform(ranks).WithNodes(2)
	p.Intra = network.Link{LatencySec: 1e-6, BandwidthMBps: 5000}
	res, err := sim.Run(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTrafficSummaryClassifies(t *testing.T) {
	res := hierRingResult(t, 8)
	s := TrafficSummaryOf(res)
	// An 8-rank ring on 2 block-mapped nodes: 6 hops stay inside a node,
	// 2 hops (3->4 and 7->0) cross the interconnect.
	if s.IntraMsgs != 6 || s.InterMsgs != 2 {
		t.Fatalf("split %d intra / %d inter, want 6/2", s.IntraMsgs, s.InterMsgs)
	}
	if s.IntraBytes != 60_000 || s.InterBytes != 20_000 {
		t.Fatalf("bytes %d intra / %d inter", s.IntraBytes, s.InterBytes)
	}
	if s.IntraLineSec <= 0 || s.InterLineSec <= 0 {
		t.Fatalf("line lengths not populated: %+v", s)
	}
	out := s.Format()
	for _, want := range []string{"intra-node", "inter-node", "75.0%", "25.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestCommLinesAnnotateIntra(t *testing.T) {
	res := hierRingResult(t, 8)
	out := CommLines(res, 0)
	if strings.Count(out, "[intra]") != 6 {
		t.Fatalf("want 6 [intra] markers:\n%s", out)
	}
	// Flat replays must not grow markers.
	flat := ringResult(t, 4, 1)
	if strings.Contains(CommLines(flat, 0), "[intra]") {
		t.Fatal("flat replay annotated as intra-node")
	}
}
