package core_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/tracer"
)

// raceEnabled is set under the race detector (race_test.go), which slows
// the 64-rank half of TestFig6AnswersAgreeWithSpeedup fifteenfold without
// checking anything the plain run does not. CI runs that half in a plain
// step.
var raceEnabled bool

// fig6 analyzes every application on ranks processes of its calibrated
// testbed (Fig. 6a) and runs its bandwidth study (Fig. 6b/6c), both on
// one trace cache.
func fig6(t *testing.T, ranks int) ([]*core.Report, []*core.BandwidthNeeds) {
	t.Helper()
	ctx := context.Background()
	traces := engine.NewTraceCache()
	var reps []*core.Report
	var needs []*core.BandwidthNeeds
	for _, e := range apps.All(ranks) {
		plat := network.TestbedFor(e.App.Name, ranks)
		rep, err := core.Analyze(ctx, nil, traces, e.App, ranks, tracer.DefaultConfig(), plat)
		if err != nil {
			t.Fatal(err)
		}
		n, err := core.RunBandwidthNeeds(ctx, nil, core.Scenario{App: e.App, Ranks: ranks, Platform: plat, Traces: traces})
		if err != nil {
			t.Fatal(err)
		}
		reps, needs = append(reps, rep), append(needs, n)
	}
	return reps, needs
}

// TestFig6AnswersAgreeWithSpeedup: where an overlapped flavor is at
// least as fast as the base at the reference bandwidth (Fig. 6a speedup
// >= 1), it matches the base at some grid bandwidth no higher than the
// reference (Fig. 6b first crossing <= ref); where it is faster (speedup
// > 1), the base needs more than the reference from some point on (Fig.
// 6c holding threshold >= ref). A search that assumed the makespan
// monotone in bandwidth printed specfem3d/64's overlap-real answers the
// other way round.
func TestFig6AnswersAgreeWithSpeedup(t *testing.T) {
	for _, ranks := range []int{16, 64} {
		if ranks == 64 && (testing.Short() || raceEnabled) {
			continue
		}
		reps, needs := fig6(t, ranks)
		for i, rep := range reps {
			n := needs[i]
			for _, c := range []struct {
				o       core.OverlapNeeds
				speedup float64
			}{{n.Real, rep.SpeedupReal}, {n.Ideal, rep.SpeedupIdeal}} {
				at := fmt.Sprintf("%s/%d %s (speedup %.4f)", rep.App, ranks, c.o.Flavor, c.speedup)
				if c.speedup >= 1 && c.o.Relaxed.First > n.RefMBps {
					t.Errorf("%s: Fig. 6b first crossing %g MB/s above the reference %g", at, c.o.Relaxed.First, n.RefMBps)
				}
				if c.speedup > 1 && c.o.Equivalent.Holding < n.RefMBps {
					t.Errorf("%s: Fig. 6c holding threshold %g MB/s below the reference %g", at, c.o.Equivalent.Holding, n.RefMBps)
				}
			}
		}
	}
}

// fig6Golden pins every Fig. 6b/6c answer at 16 ranks on the calibrated
// testbeds: per app and overlapped flavor, the 6b and 6c first crossing
// and holding threshold in MB/s and the curve's largest rise.
const fig6Golden = `
sweep3d    overlap-real   6b   125.00   125.00  0.48% | 6c      inf      inf  2.99%
sweep3d    overlap-ideal  6b    18.58    18.58  1.69% | 6c      inf      inf  2.99%
pop        overlap-real   6b   162.10   162.10  0.90% | 6c   420.45   420.45  0.31%
pop        overlap-ideal  6b    52.56    52.56  2.66% | 6c  1090.51  1090.51  0.31%
alya       overlap-real   6b   250.00   250.00  0.00% | 6c   250.00   250.00  0.00%
alya       overlap-ideal  6b   250.00   250.00  0.00% | 6c   250.00   250.00  0.00%
specfem3d  overlap-real   6b   162.10   162.10  0.00% | 6c   545.25   648.42  3.38%
specfem3d  overlap-ideal  6b    28.66    28.66  0.00% | 6c      inf      inf  3.38%
bt         overlap-real   6b   162.10   162.10  0.00% | 6c   771.11   771.11  0.00%
bt         overlap-ideal  6b    37.16    37.16  0.00% | 6c      inf      inf  0.00%
cg         overlap-real   6b    40.53    40.53  0.00% | 6c      inf      inf  0.00%
cg         overlap-ideal  6b    40.53    40.53  0.00% | 6c      inf      inf  0.00%
`

func TestFig6GoldenTable16(t *testing.T) {
	_, needs := fig6(t, 16)
	bw := func(v float64) string {
		if math.IsInf(v, 1) {
			return "inf"
		}
		return fmt.Sprintf("%.2f", v)
	}
	var b strings.Builder
	b.WriteString("\n")
	for i, n := range needs {
		for _, o := range []core.OverlapNeeds{n.Real, n.Ideal} {
			r, e := o.Relaxed, o.Equivalent
			fmt.Fprintf(&b, "%-10s %-14s 6b %8s %8s %5.2f%% | 6c %8s %8s %5.2f%%\n", apps.Names[i], o.Flavor,
				bw(r.First), bw(r.Holding), 100*r.Rise, bw(e.First), bw(e.Holding), 100*e.Rise)
		}
	}
	if got := b.String(); got != fig6Golden {
		t.Fatalf("Fig. 6b/6c answers at 16 ranks changed:\n got:%s\nwant:%s", got, fig6Golden)
	}
}

// TestFormatNeedsTable pins the Fig. 6b/6c rows both CLIs print on a
// hand-built one-app study read through its Relaxed crossings: a flavor
// that matches at finite grid bandwidths gets a first and a holding cell,
// each with its factor over the reference, and one that matches at none
// gets a single unreachable cell across both columns, with no factor.
func TestFormatNeedsTable(t *testing.T) {
	inf := math.Inf(1)
	n := &core.BandwidthNeeds{
		RefMBps: 250,
		Real:    core.OverlapNeeds{Flavor: core.FlavorReal, Relaxed: metrics.Crossing{First: 125, Holding: 162.1, Rise: 0.0048}},
		Ideal:   core.OverlapNeeds{Flavor: core.FlavorIdeal, Relaxed: metrics.Crossing{First: inf, Holding: inf, Rise: 0.0299}},
	}
	got := core.FormatNeedsTable([]string{"sweep3d"}, []*core.BandwidthNeeds{n}, func(o core.OverlapNeeds) metrics.Crossing { return o.Relaxed })
	want := "grid: reference x 2^(k/8) for k = -48..48, and inf (98 bandwidths)\n" +
		"first = lowest grid bandwidth that matches; holding = lowest from which every faster one matches; rise = largest slowdown of one grid step up\n" +
		"app          flavor                      first (x ref)            holding (x ref)     rise\n" +
		"sweep3d      overlap-real          125.00 MB/s (0.50x)        162.10 MB/s (0.65x)     0.5%\n" +
		"sweep3d      overlap-ideal                   inf (not reachable at any bandwidth)     3.0%\n"
	if got != want {
		t.Fatalf("Fig. 6b/6c rows changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
