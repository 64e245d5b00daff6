package paraver

import (
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

func pingResult(t *testing.T) *sim.Result {
	t.Helper()
	tr := trace.New("ping", "base", 2)
	tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 1_000_000})
	tr.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: 0, Bytes: 100_000})
	tr.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 0, Bytes: 100_000})
	tr.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 500_000})
	cfg := network.Config{Processors: 2, LatencySec: 1e-5, BandwidthMBps: 100, MIPS: 1000, EagerThresholdBytes: -1, RelativeSpeed: 1}
	res, err := sim.Run(cfg.Platform(), tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRenderContainsAllRanksAndStates(t *testing.T) {
	res := pingResult(t)
	out := Render(res, "ping", 60)
	if !strings.Contains(out, "P0") || !strings.Contains(out, "P1") {
		t.Fatalf("missing rank rows:\n%s", out)
	}
	if !strings.ContainsRune(out, GlyphCompute) {
		t.Fatalf("no compute glyph:\n%s", out)
	}
	if !strings.ContainsRune(out, GlyphWait) {
		t.Fatalf("no wait glyph (receiver must wait):\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines", len(lines))
	}
}

func TestRenderMinimumWidth(t *testing.T) {
	res := pingResult(t)
	out := Render(res, "tiny", 1) // clamped to 10
	rows := strings.Split(strings.TrimSpace(out), "\n")[1:]
	for _, row := range rows {
		inner := row[strings.Index(row, "|")+1 : strings.LastIndex(row, "|")]
		if len(inner) != 10 {
			t.Fatalf("row width %d, want 10: %q", len(inner), row)
		}
	}
}

func TestRenderComparisonSharedScale(t *testing.T) {
	res := pingResult(t)
	out := RenderComparison(res, res, "base", "overlap", 50)
	if !strings.Contains(out, "improvement of") {
		t.Fatalf("missing improvement line:\n%s", out)
	}
	if !strings.Contains(out, "0.00%") {
		t.Fatalf("identical runs must show 0%% improvement:\n%s", out)
	}
	if strings.Count(out, "P0") != 2 {
		t.Fatalf("both timelines must appear:\n%s", out)
	}
}

func TestProfileSharesSumToOne(t *testing.T) {
	res := pingResult(t)
	p := ProfileOf(res)
	sum := p.ComputeShare + p.WaitShare + p.SendShare + p.IdleShare
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
	if p.WaitShare <= 0 {
		t.Fatal("receiver wait must appear in profile")
	}
	if p.FinishSec != res.FinishSec {
		t.Fatal("profile finish mismatch")
	}
	txt := p.Format()
	for _, want := range []string{"compute", "wait", "send", "idle", "makespan"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("profile format missing %q:\n%s", want, txt)
		}
	}
}

func TestWritePRV(t *testing.T) {
	res := pingResult(t)
	var sb strings.Builder
	if err := WritePRV(&sb, res, "ping run"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[0], "#PRVGO ping_run 2 ") {
		t.Fatalf("bad header: %q", lines[0])
	}
	var states, comms int
	for _, l := range lines[1:] {
		switch {
		case strings.HasPrefix(l, "1:"):
			states++
		case strings.HasPrefix(l, "3:"):
			comms++
		default:
			t.Fatalf("unknown record: %q", l)
		}
	}
	if states != len(res.Intervals) {
		t.Fatalf("state records=%d, want %d", states, len(res.Intervals))
	}
	if comms != len(res.Comms) {
		t.Fatalf("comm records=%d, want %d", comms, len(res.Comms))
	}
}

func TestCommLines(t *testing.T) {
	res := pingResult(t)
	out := CommLines(res, 0)
	if !strings.Contains(out, "P0 --(") || !strings.Contains(out, "--> P1") {
		t.Fatalf("comm lines malformed:\n%s", out)
	}
	limited := CommLines(res, 1)
	if strings.Contains(limited, "more") && len(res.Comms) == 1 {
		t.Fatalf("limit reporting wrong for single comm:\n%s", limited)
	}
}
