// Command experiments regenerates every table and figure of the paper's
// evaluation section from the Go reproduction:
//
//	Table I   — per-application Dimemas bus counts (configuration)
//	Figure 4  — Paraver-style timelines of NAS-CG, non-overlapped vs
//	            overlapped, plus the measured improvement
//	Figure 5  — production/consumption scatter plots (Sweep3D, BT, POP)
//	Table II  — production/consumption pattern statistics, all six apps
//	Figure 6a — overlap speedup, real and ideal patterns
//	Figure 6b — bandwidth relaxation of the overlapped execution
//	Figure 6c — equivalent bandwidth of the non-overlapped execution
//
// Usage:
//
//	experiments [-ranks N] [-chunks K] [-only table1,fig4,...]
//
// Output goes to stdout; -csvdir writes the Fig. 5 scatter data as CSV.
//
// The platform flags (-preset, -platform, -nodes, -map, ...) swap the
// platform under every per-app replay (Fig. 4 and the extras stay pinned
// to the paper's testbed; Table II and Fig. 5 read the traced run and
// replay nothing); "-only mapping" adds the hierarchical placement study:
// block vs round-robin per application plus a CG node-count sweep.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/paraver"
	"repro/internal/pattern"
	"repro/internal/platformflag"
	"repro/internal/plot"
	"repro/internal/sim"
	"repro/internal/tracer"
)

func main() {
	ranks := flag.Int("ranks", 16, "ranks per application run (the paper uses 64)")
	chunks := flag.Int("chunks", 4, "chunks per message in the overlapped traces")
	only := flag.String("only", "all", "comma-separated subset: table1,fig4,fig5,table2,fig6a,fig6b,fig6c,mapping,extras")
	pf := platformflag.Register(flag.CommandLine)
	csvdir := flag.String("csvdir", "", "directory for Fig. 5 CSV scatter data (optional)")
	svgdir := flag.String("svgdir", "", "directory for SVG figures (optional)")
	width := flag.Int("width", 100, "timeline/scatter width in characters")
	workers := flag.Int("workers", 0, "experiment-engine worker pool size (0 = GOMAXPROCS)")
	tm := platformflag.RegisterTimings(flag.CommandLine)
	flag.Parse()
	defer tm.MaybeDump(os.Stderr)

	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		want[strings.TrimSpace(k)] = true
	}
	sel := func(k string) bool { return want["all"] || want[k] }

	tCfg := tracer.DefaultConfig()
	tCfg.Chunks = *chunks
	ctx := context.Background()
	eng := engine.New(*workers)

	// platFor resolves the active platform for one application: the
	// calibrated testbed by default, or whatever -preset/-platform plus
	// the override flags select.
	platFor := func(name string) network.Platform {
		p, err := pf.Resolve(name, *ranks)
		if err != nil {
			fatal("%v", err)
		}
		return p
	}
	if pf.DumpRequested() {
		// The default testbed carries per-app Table I bus calibrations;
		// one dump can only capture one of them.
		fmt.Fprintln(os.Stderr, "experiments: dumping the platform as resolved for app \"cg\" (Table I bus calibration varies per app)")
		if err := pf.Dump(os.Stdout, platFor("cg")); err != nil {
			fatal("%v", err)
		}
		return
	}

	if sel("table1") {
		table1()
	}

	if sel("fig4") {
		fig4(eng, tCfg, *width)
	}
	if sel("fig5") {
		fig5(eng, *ranks, tCfg, *csvdir, *svgdir, *width)
	}
	if sel("table2") {
		table2(ctx, eng, *ranks, tCfg)
	}
	if sel("fig6a") {
		fig6a(ctx, eng, *ranks, tCfg, platFor, *svgdir)
	}
	if sel("fig6b") || sel("fig6c") {
		needs := bandwidthNeeds(ctx, eng, *ranks, tCfg, platFor)
		if sel("fig6b") {
			fig6b(needs)
		}
		if sel("fig6c") {
			fig6c(needs)
		}
	}
	if sel("mapping") {
		mappingStudy(ctx, eng, *ranks, tCfg, platFor, *svgdir)
	}
	if sel("extras") {
		extras(ctx, eng, *ranks, tCfg)
	}
}

// mappingStudy is the hierarchical-platform artifact: per application,
// block vs round-robin placement on the active multi-node platform (the
// marenostrum-4x preset when the flags selected a flat one), plus a CG
// node-count sweep. Every sweep is a traffic scenario of the base and
// overlap-real flavors on the engine's shared trace cache.
func mappingStudy(ctx context.Context, eng *engine.Engine, ranks int, tCfg tracer.Config, platFor func(string) network.Platform, svgdir string) {
	header("Mapping study — block vs round-robin placement (hierarchical platform)")
	basePlat := func(name string) network.Platform {
		p := platFor(name)
		if !p.MultiNode() {
			hp, err := network.PlatformPreset("marenostrum-4x", ranks)
			if err != nil {
				fatal("mapping: %v", err)
			}
			hp.Buses = p.Buses // keep the app's Table I calibration on the interconnect
			p = hp
		}
		return p
	}
	placement := func(ctx context.Context, app core.App, ax core.Axis) ([]core.ScenarioPoint, error) {
		res, err := core.RunScenario(ctx, eng, core.Scenario{
			App: app, Ranks: ranks, Tracer: tCfg, Platform: basePlat(app.Name),
			Flavors: []core.Flavor{core.FlavorBase, core.FlavorReal},
			Axes:    []core.Axis{ax},
			Output:  core.OutputTraffic,
			Traces:  eng.Traces(),
		})
		if err != nil {
			return nil, err
		}
		return res.Points, nil
	}
	fmt.Printf("platform: %s\n\n", basePlat("cg").Describe())
	entries := apps.All(ranks)
	swept, err := engine.Map(ctx, eng, len(entries), func(ctx context.Context, i int) ([]core.ScenarioPoint, error) {
		e := entries[i]
		pts, err := placement(ctx, e.App, core.MappingAxis("block", "rr"))
		if err != nil {
			return nil, fmt.Errorf("mapping %s: %w", e.App.Name, err)
		}
		return pts, nil
	})
	if err != nil {
		fatal("%v", err)
	}
	var groups []plot.BarGroup
	for i, e := range entries {
		fmt.Printf("-- %s --\n%s\n", e.App.Name, placementTable(core.TableColumn{Name: "mapping", Width: 12}, swept[i]))
		groups = append(groups, plot.BarGroup{
			Label:  e.App.Name,
			Values: []float64{swept[i][0].Flavors[0].FinishSec * 1e3, swept[i][1].Flavors[0].FinishSec * 1e3},
		})
	}
	if svgdir != "" {
		writeFile(filepath.Join(svgdir, "mapping_block_vs_rr.svg"), "mapping svg", "", func(w io.Writer) error {
			return plot.WriteBarsSVG(w, "Placement — non-overlapped finish by mapping", "finish (ms)",
				[]string{"block", "round-robin"}, groups)
		})
	}

	fmt.Printf("\nCG node-count sweep (%d ranks packed onto N nodes):\n", ranks)
	e, _ := apps.ByName("cg", ranks)
	var counts []int
	for n := 1; n <= ranks; n *= 2 {
		counts = append(counts, n)
	}
	pts, err := placement(ctx, e.App, core.NodeCountAxis(counts...))
	if err != nil {
		fatal("node-count sweep: %v", err)
	}
	fmt.Print(placementTable(core.TableColumn{Name: "nodes", Width: 8}, pts))
}

// placementTable renders the points of a one-axis placement scenario
// (flavors base and overlap-real, traffic output): per point its
// coordinate, both makespans, their speedup and the base flavor's
// traffic split.
func placementTable(point core.TableColumn, pts []core.ScenarioPoint) string {
	cols := []core.TableColumn{
		point,
		{Name: "base (s)", Width: 14},
		{Name: "overlap (s)", Width: 14},
		{Name: "speedup", Width: 10},
		{Name: "intra bytes", Width: 14},
		{Name: "inter bytes", Width: 14},
	}
	var b strings.Builder
	b.WriteString(core.FormatTableHeader(cols))
	for _, pt := range pts {
		base, real := pt.Flavors[0], pt.Flavors[1]
		b.WriteString(core.FormatTableRow(cols, []string{
			pt.Coords[0].Value,
			fmt.Sprintf("%.6f", base.FinishSec),
			fmt.Sprintf("%.6f", real.FinishSec),
			fmt.Sprintf("%.3f", metrics.Speedup(base.FinishSec, real.FinishSec)),
			strconv.FormatInt(base.Traffic.IntraBytes, 10),
			strconv.FormatInt(base.Traffic.InterBytes, 10),
		}))
	}
	return b.String()
}

// extras prints the analyses this reproduction adds beyond the paper's
// artifacts: critical-path attribution and per-buffer what-if rankings.
// The per-app jobs run across the engine; output order stays the paper's
// app order because engine.Map preserves submission order.
func extras(ctx context.Context, eng *engine.Engine, ranks int, tCfg tracer.Config) {
	header("Extras — critical paths and per-buffer what-if (beyond the paper)")
	entries := apps.All(ranks)
	type extra struct {
		critPath string
		whatIf   string
	}
	results, err := engine.Map(ctx, eng, len(entries), func(ctx context.Context, i int) (extra, error) {
		e := entries[i]
		name := e.App.Name
		plat := network.TestbedFor(name, ranks)
		// The shared cache makes the run and its programs hits when
		// Table II and Fig. 6a already traced the app and compiled its
		// flavours (the default -only=all run).
		base, err := replay(eng, e.App, ranks, tCfg, plat, core.FlavorBase)
		if err != nil {
			return extra{}, fmt.Errorf("extras %s: %w", name, err)
		}
		wi, err := core.RunScenario(ctx, eng, core.Scenario{App: e.App, Ranks: ranks, Tracer: tCfg, Platform: plat, Output: core.OutputWhatIf, Traces: eng.Traces()})
		if err != nil {
			return extra{}, fmt.Errorf("extras %s what-if: %w", name, err)
		}
		return extra{
			critPath: sim.CriticalPathOf(base).Format(4),
			whatIf:   wi.Points[0].WhatIf.Format(),
		}, nil
	})
	if err != nil {
		fatal("%v", err)
	}
	for i, e := range entries {
		fmt.Printf("\n-- %s, non-overlapped --\n", e.App.Name)
		fmt.Print(results[i].critPath)
		fmt.Print(results[i].whatIf)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}

// writeFile writes one artifact with write and prints "wrote <path>" and
// note; a failure to create, write or close it is fatal, named by what.
func writeFile(path, what, note string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = errors.Join(write(f), f.Close())
	}
	if err != nil {
		fatal("%s: %v", what, err)
	}
	fmt.Printf("wrote %s%s\n", path, note)
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

func table1() {
	header("Table I — number of network buses used in Dimemas for each application")
	fmt.Printf("%-12s %s\n", "app", "buses")
	for _, name := range apps.Names {
		fmt.Printf("%-12s %d\n", name, network.TableIBuses[name])
	}
}

// fig4 reproduces the Figure 4 view: NAS-CG on 4 processes, first
// iterations, non-overlapped vs overlapped timeline.
func fig4(eng *engine.Engine, tCfg tracer.Config, width int) {
	header("Figure 4 — Paraver view of NAS-CG (4 ranks): non-overlapped vs overlapped")
	e, _ := apps.ByName("cg", 4)
	plat := network.TestbedFor("cg", 4)
	base, err := replay(eng, e.App, 4, tCfg, plat, core.FlavorBase)
	if err != nil {
		fatal("fig4: %v", err)
	}
	real, err := replay(eng, e.App, 4, tCfg, plat, core.FlavorReal)
	if err != nil {
		fatal("fig4: %v", err)
	}
	fmt.Print(paraver.RenderComparison(base, real, "cg/non-overlapped", "cg/overlapped(real)", width))
	fmt.Println("\nnon-overlapped profile:")
	fmt.Print(paraver.ProfileOf(base).Format())
	fmt.Println("overlapped profile:")
	fmt.Print(paraver.ProfileOf(real).Format())
	fmt.Println("first transfers (watch the send->match lines lengthen under overlap):")
	fmt.Print(paraver.CommLines(real, 8))
}

// replay replays one flavour of app in full on plat (timeline, comm log
// and per-rank accounting), its program from the engine's trace cache.
func replay(eng *engine.Engine, app core.App, ranks int, tCfg tracer.Config, plat network.Platform, f core.Flavor) (*sim.Result, error) {
	prog, _, err := eng.Traces().CompiledProgram(app.Name, ranks, tCfg, app.Kernel, string(f))
	if err != nil {
		return nil, err
	}
	return sim.ReplayInto(plat, prog, 1, new(sim.Result))
}

var fig5Specs = []struct {
	app, buffer string
	side        pattern.Side
	rank        int
	caption     string
}{
	{"sweep3d", "outflow-east", pattern.Production, 0, "(a) SWEEP3D production pattern"},
	{"bt", "face-in", pattern.Consumption, 1, "(b) NAS-BT consumption pattern"},
	{"pop", "halo-in-e", pattern.Consumption, 0, "(c) POP consumption pattern"},
}

// fig5 takes each scatter's traced run from the engine's shared cache.
func fig5(eng *engine.Engine, ranks int, tCfg tracer.Config, csvdir, svgdir string, width int) {
	header("Figure 5 — production and consumption patterns")
	for _, spec := range fig5Specs {
		e, _ := apps.ByName(spec.app, ranks)
		run, err := eng.Traces().Trace(spec.app, ranks, tCfg, e.App.Kernel)
		if err != nil {
			fatal("fig5 %s: %v", spec.app, err)
		}
		sc := pattern.ScatterFor(run, spec.buffer, spec.rank, spec.side)
		if sc == nil {
			fmt.Printf("%s: no data (buffer %q rank %d)\n", spec.caption, spec.buffer, spec.rank)
			continue
		}
		fmt.Println(spec.caption)
		fmt.Print(sc.ASCII(width, 16))
		fmt.Println()
		if csvdir != "" {
			writeFile(filepath.Join(csvdir, fmt.Sprintf("fig5_%s_%s.csv", spec.app, sc.Side)), "fig5 csv",
				fmt.Sprintf(" (%d points)", len(sc.Points)), sc.WriteCSV)
		}
		if svgdir != "" {
			pts := make([]plot.ScatterPoint, len(sc.Points))
			for i, p := range sc.Points {
				pts[i] = plot.ScatterPoint{X: p.RelT, Y: float64(p.Elem)}
			}
			writeFile(filepath.Join(svgdir, fmt.Sprintf("fig5_%s_%s.svg", spec.app, sc.Side)), "fig5 svg", "", func(w io.Writer) error {
				return plot.WriteScatterSVG(w, spec.caption, "relative interval time", "element offset", pts)
			})
		}
	}
}

// table2 reads each app's Table II row from the engine's shared trace
// cache: the patterns are measured on the traced run, so no platform
// enters and nothing is replayed.
func table2(ctx context.Context, eng *engine.Engine, ranks int, tCfg tracer.Config) {
	entries := apps.All(ranks)
	rows, err := engine.Map(ctx, eng, len(entries), func(ctx context.Context, i int) (*pattern.Analysis, error) {
		e := entries[i]
		an, err := eng.Traces().Patterns(e.App.Name, ranks, tCfg, e.App.Kernel)
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", e.App.Name, err)
		}
		return an, nil
	})
	if err != nil {
		fatal("%v", err)
	}
	header("Table II — production and consumption average patterns")
	fmt.Print(pattern.FormatTableII(rows))
}

// refLabel spells the reference bandwidth the apps share, or says it differs.
func refLabel(refs []float64) string {
	if slices.Min(refs) != slices.Max(refs) {
		return "each app's reference bandwidth"
	}
	return fmt.Sprintf("%g MB/s", refs[0])
}

// fig6a reads each app's three makespans on its active platform from one
// single-point scenario, fanned out across the engine on its shared trace
// cache. A flavor whose replay stalled on injected faults has no finish,
// so it fails the figure, named by app and flavor.
func fig6a(ctx context.Context, eng *engine.Engine, ranks int, tCfg tracer.Config, platFor func(string) network.Platform, svgdir string) {
	entries := apps.All(ranks)
	refs := make([]float64, len(entries))
	finishes, err := engine.Map(ctx, eng, len(entries), func(ctx context.Context, i int) ([]core.FlavorMeasure, error) {
		e := entries[i]
		plat := platFor(e.App.Name)
		refs[i] = plat.Inter.BandwidthMBps
		res, err := core.RunScenario(ctx, eng, core.Scenario{
			App: e.App, Ranks: ranks, Tracer: tCfg, Platform: plat,
			Flavors: []core.Flavor{core.FlavorBase, core.FlavorReal, core.FlavorIdeal},
			Traces:  eng.Traces(),
		})
		if err != nil {
			return nil, fmt.Errorf("fig6a %s: %w", e.App.Name, err)
		}
		for _, m := range res.Points[0].Flavors {
			if m.Fault != "" {
				return nil, fmt.Errorf("fig6a %s: %s: %s", e.App.Name, m.Flavor, m.Fault)
			}
		}
		return res.Points[0].Flavors, nil
	})
	if err != nil {
		fatal("%v", err)
	}
	header("Figure 6a — speedup of the overlapped execution (" + refLabel(refs) + " testbed)")
	fmt.Printf("%-12s %14s %14s\n", "app", "real patterns", "ideal patterns")
	var groups []plot.BarGroup
	for i, e := range entries {
		fs := finishes[i]
		real := metrics.Speedup(fs[0].FinishSec, fs[1].FinishSec)
		ideal := metrics.Speedup(fs[0].FinishSec, fs[2].FinishSec)
		fmt.Printf("%-12s %14.3f %14.3f\n", e.App.Name, real, ideal)
		groups = append(groups, plot.BarGroup{Label: e.App.Name, Values: []float64{real, ideal}})
	}
	if svgdir != "" {
		writeFile(filepath.Join(svgdir, "fig6a_speedup.svg"), "fig6a svg", "", func(w io.Writer) error {
			return plot.WriteBarsSVG(w, "Fig. 6a — overlap speedup", "speedup (x)",
				[]string{"real patterns", "ideal patterns"}, groups)
		})
	}
}

// bandwidthNeeds runs each application's Fig. 6b/6c study on its active
// platform, fanned out across the engine on its shared trace cache.
func bandwidthNeeds(ctx context.Context, eng *engine.Engine, ranks int, tCfg tracer.Config, platFor func(string) network.Platform) []*core.BandwidthNeeds {
	entries := apps.All(ranks)
	needs, err := engine.Map(ctx, eng, len(entries), func(ctx context.Context, i int) (*core.BandwidthNeeds, error) {
		e := entries[i]
		n, err := core.RunBandwidthNeeds(ctx, eng, core.Scenario{App: e.App, Ranks: ranks, Tracer: tCfg, Platform: platFor(e.App.Name), Traces: eng.Traces()})
		if err != nil {
			return nil, fmt.Errorf("fig6b/6c %s: %w", e.App.Name, err)
		}
		return n, nil
	})
	if err != nil {
		fatal("%v", err)
	}
	return needs
}

// needsTable prints a Fig. 6b/6c table of the crossing pick reads under
// its title, a row per app and overlapped flavor.
func needsTable(title string, needs []*core.BandwidthNeeds, pick func(core.OverlapNeeds) metrics.Crossing) {
	refs := make([]float64, len(needs))
	for i, n := range needs {
		refs[i] = n.RefMBps
	}
	header(title + " at " + refLabel(refs))
	fmt.Print(core.FormatNeedsTable(apps.Names, needs, pick))
}

func fig6b(needs []*core.BandwidthNeeds) {
	needsTable("Figure 6b — bandwidth needed by the overlapped execution to match the non-overlapped", needs, func(o core.OverlapNeeds) metrics.Crossing { return o.Relaxed })
}

func fig6c(needs []*core.BandwidthNeeds) {
	needsTable("Figure 6c — bandwidth the non-overlapped execution needs to match the overlapped", needs, func(o core.OverlapNeeds) metrics.Crossing { return o.Equivalent })
}
