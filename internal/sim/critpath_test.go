package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestCriticalPathComputeOnly(t *testing.T) {
	tr := trace.New("t", "base", 1)
	tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 2_000_000})
	res, err := Run(flatPlatform(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	cp := CriticalPathOf(res)
	if len(cp.Steps) != 1 || cp.Steps[0].Kind != StepCompute {
		t.Fatalf("steps: %+v", cp.Steps)
	}
	if !near(cp.ComputeSec, res.FinishSec) {
		t.Fatalf("compute attribution %g, want %g", cp.ComputeSec, res.FinishSec)
	}
	if cp.Hops != 0 {
		t.Fatalf("hops=%d, want 0", cp.Hops)
	}
}

func TestCriticalPathCrossesTransfer(t *testing.T) {
	// Rank 0 computes 5ms then sends; rank 1 receives immediately and
	// computes 1ms. Critical path: compute(P0) -> transfer -> compute(P1).
	tr := trace.New("t", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 5_000_000})
	tr.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: 0, Bytes: 100_000})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 0, Bytes: 100_000})
	tr.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 1_000_000})
	res, err := Run(flatPlatform(2), tr)
	if err != nil {
		t.Fatal(err)
	}
	cp := CriticalPathOf(res)
	if cp.Hops != 1 {
		t.Fatalf("hops=%d, want 1", cp.Hops)
	}
	kinds := make([]StepKind, len(cp.Steps))
	for i, s := range cp.Steps {
		kinds[i] = s.Kind
	}
	if len(kinds) != 3 || kinds[0] != StepCompute || kinds[1] != StepTransfer || kinds[2] != StepCompute {
		t.Fatalf("kinds: %v", kinds)
	}
	if cp.Steps[0].Rank != 0 || cp.Steps[2].Rank != 1 {
		t.Fatalf("ranks along path: %+v", cp.Steps)
	}
	// Transfer attribution = flight time (10us latency + 1ms serialization).
	if !near(cp.TransferSec, 10e-6+0.001) {
		t.Fatalf("transfer=%g, want %g", cp.TransferSec, 10e-6+0.001)
	}
}

func TestCriticalPathAttributionSumsToMakespan(t *testing.T) {
	tr := ringTrace(6, 12, 800_000, 48_000)
	res, err := Run(flatPlatform(6), tr)
	if err != nil {
		t.Fatal(err)
	}
	cp := CriticalPathOf(res)
	sum := cp.ComputeSec + cp.SendBlockedSec + cp.TransferSec + cp.IdleSec
	if math.Abs(sum-res.FinishSec) > 1e-9*math.Max(1, res.FinishSec) {
		t.Fatalf("attribution %g != makespan %g", sum, res.FinishSec)
	}
	// Steps must be contiguous in time.
	for i := 1; i < len(cp.Steps); i++ {
		if math.Abs(cp.Steps[i].Start-cp.Steps[i-1].End) > 1e-9 {
			t.Fatalf("gap between steps %d and %d: %g vs %g", i-1, i, cp.Steps[i-1].End, cp.Steps[i].Start)
		}
	}
	if cp.Steps[len(cp.Steps)-1].End != res.FinishSec {
		t.Fatalf("path does not end at the makespan")
	}
}

func TestCriticalPathFormat(t *testing.T) {
	tr := ringTrace(4, 4, 500_000, 64_000)
	res, err := Run(flatPlatform(4), tr)
	if err != nil {
		t.Fatal(err)
	}
	out := CriticalPathOf(res).Format(5)
	for _, want := range []string{"critical path:", "compute", "transfer", "longest steps:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestCriticalPathEmptyResult(t *testing.T) {
	cp := CriticalPathOf(&Result{})
	if len(cp.Steps) != 0 || cp.FinishSec != 0 {
		t.Fatalf("empty result path: %+v", cp)
	}
}

func TestStepKindString(t *testing.T) {
	want := map[StepKind]string{
		StepCompute: "compute", StepSendBlocked: "send-blocked",
		StepTransfer: "transfer", StepIdle: "idle",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("StepKind(%d)=%q, want %q", k, k.String(), s)
		}
	}
	if StepKind(9).String() != "step(9)" {
		t.Error("unknown step kind string")
	}
}
