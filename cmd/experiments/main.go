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
// platform under every per-app analysis (Fig. 4 stays pinned to the
// paper's testbed); "-only mapping" adds the hierarchical placement study:
// block vs round-robin per application plus a CG node-count sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
	"repro/internal/service"
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
	scenarioPath := flag.String("scenario", "", "run a declarative scenario spec (JSON, the POST /v1/scenarios schema) instead of the paper artifacts")
	scenarioJSON := flag.Bool("scenario-json", false, "with -scenario, print the raw result JSON instead of the point table")
	tm := platformflag.RegisterTimings(flag.CommandLine)
	flag.Parse()
	defer tm.MaybeDump(os.Stderr)

	if *scenarioPath != "" {
		if *scenarioJSON {
			_, raw, err := service.RunScenarioFile(context.Background(), *scenarioPath, service.Options{Engine: engine.New(*workers), ReplayShards: pf.ReplayShards()})
			if err != nil {
				fatal("%v", err)
			}
			os.Stdout.Write(raw)
			fmt.Println()
			return
		}
		// The table prints incrementally: each grid point appears the
		// moment it (and its predecessors) finish simulating.
		if err := service.StreamScenarioFile(context.Background(), *scenarioPath, service.Options{Engine: engine.New(*workers), ReplayShards: pf.ReplayShards()}, os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}

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

	// Analyze every app once on its active platform; the apps fan out
	// across the engine pool, each app is traced exactly once through the
	// shared cache, and the reports are reused across artifacts.
	reports := map[string]*core.Report{}
	runs := map[string]*tracer.Run{}
	if sel("fig4") || sel("fig5") || sel("table2") || sel("fig6a") || sel("fig6b") || sel("fig6c") {
		entries := apps.All(*ranks)
		type appAnalysis struct {
			rep *core.Report
			run *tracer.Run
		}
		results, err := engine.Map(ctx, eng, len(entries), func(ctx context.Context, i int) (appAnalysis, error) {
			name := entries[i].App.Name
			run, err := eng.Traces().Trace(name, *ranks, tCfg, entries[i].App.Kernel)
			if err != nil {
				return appAnalysis{}, fmt.Errorf("tracing %s: %w", name, err)
			}
			rep, err := core.AnalyzeRun(ctx, eng, run, platFor(name))
			if err != nil {
				return appAnalysis{}, fmt.Errorf("analyzing %s: %w", name, err)
			}
			return appAnalysis{rep: rep, run: run}, nil
		})
		if err != nil {
			fatal("%v", err)
		}
		for i, e := range entries {
			reports[e.App.Name] = results[i].rep
			runs[e.App.Name] = results[i].run
		}
	}

	if sel("fig4") {
		fig4(ctx, eng, tCfg, *width)
	}
	if sel("fig5") {
		fig5(runs, *csvdir, *svgdir, *width)
	}
	if sel("table2") {
		table2(runs)
	}
	if sel("fig6a") {
		fig6a(reports, *svgdir)
	}
	if sel("fig6b") {
		fig6b(reports)
	}
	if sel("fig6c") {
		fig6c(reports)
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
// node-count sweep. Every sweep is a scenario run through the engine.
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
	fmt.Printf("platform: %s\n\n", basePlat("cg").Describe())
	mappings := []network.Mapping{network.BlockMapping(), network.RoundRobinMapping()}
	entries := apps.All(ranks)
	swept, err := engine.Map(ctx, eng, len(entries), func(ctx context.Context, i int) ([]core.MappingPoint, error) {
		e := entries[i]
		pts, err := core.MappingSweep(ctx, eng, e.App, ranks, basePlat(e.App.Name), tCfg, mappings)
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
		fmt.Printf("-- %s --\n%s\n", e.App.Name, core.FormatMappingPoints(swept[i]))
		groups = append(groups, plot.BarGroup{
			Label:  e.App.Name,
			Values: []float64{swept[i][0].BaseFinishSec * 1e3, swept[i][1].BaseFinishSec * 1e3},
		})
	}
	if svgdir != "" {
		path := filepath.Join(svgdir, "mapping_block_vs_rr.svg")
		f, err := os.Create(path)
		if err != nil {
			fatal("mapping svg: %v", err)
		}
		if err := plot.WriteBarsSVG(f, "Placement — non-overlapped finish by mapping", "finish (ms)",
			[]string{"block", "round-robin"}, groups); err != nil {
			fatal("mapping svg: %v", err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", path)
	}

	fmt.Printf("\nCG node-count sweep (%d ranks packed onto N nodes):\n", ranks)
	e, _ := apps.ByName("cg", ranks)
	var counts []int
	for n := 1; n <= ranks; n *= 2 {
		counts = append(counts, n)
	}
	pts, err := core.NodeCountSweep(ctx, eng, e.App, ranks, basePlat("cg"), tCfg, counts)
	if err != nil {
		fatal("node-count sweep: %v", err)
	}
	fmt.Print(core.FormatNodeCountPoints(pts))
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
		plat := network.TestbedFor(name, ranks).Platform()
		// The shared cache makes this a hit when the main analysis loop
		// already traced the app (the default -only=all run).
		run, err := eng.Traces().Trace(name, ranks, tCfg, e.App.Kernel)
		if err != nil {
			return extra{}, fmt.Errorf("extras tracing %s: %w", name, err)
		}
		rep, err := core.AnalyzeRun(ctx, eng, run, plat)
		if err != nil {
			return extra{}, fmt.Errorf("extras %s: %w", name, err)
		}
		wi, err := core.WhatIfRun(ctx, eng, run, plat)
		if err != nil {
			return extra{}, fmt.Errorf("extras %s what-if: %w", name, err)
		}
		return extra{
			critPath: sim.CriticalPathOf(rep.Base).Format(4),
			whatIf:   wi.Format(),
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
func fig4(ctx context.Context, eng *engine.Engine, tCfg tracer.Config, width int) {
	header("Figure 4 — Paraver view of NAS-CG (4 ranks): non-overlapped vs overlapped")
	e, _ := apps.ByName("cg", 4)
	run, err := eng.Traces().Trace("cg", 4, tCfg, e.App.Kernel)
	if err != nil {
		fatal("fig4: %v", err)
	}
	rep, err := core.AnalyzeRun(ctx, eng, run, network.TestbedFor("cg", 4).Platform())
	if err != nil {
		fatal("fig4: %v", err)
	}
	fmt.Print(paraver.RenderComparison(rep.Base, rep.Real, "cg/non-overlapped", "cg/overlapped(real)", width))
	fmt.Println("\nnon-overlapped profile:")
	fmt.Print(paraver.ProfileOf(rep.Base).Format())
	fmt.Println("overlapped profile:")
	fmt.Print(paraver.ProfileOf(rep.Real).Format())
	fmt.Println("first transfers (watch the send->match lines lengthen under overlap):")
	fmt.Print(paraver.CommLines(rep.Real, 8))
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

func fig5(runs map[string]*tracer.Run, csvdir, svgdir string, width int) {
	header("Figure 5 — production and consumption patterns")
	for _, spec := range fig5Specs {
		run := runs[spec.app]
		sc := pattern.ScatterFor(run, spec.buffer, spec.rank, spec.side)
		if sc == nil {
			fmt.Printf("%s: no data (buffer %q rank %d)\n", spec.caption, spec.buffer, spec.rank)
			continue
		}
		fmt.Println(spec.caption)
		fmt.Print(sc.ASCII(width, 16))
		fmt.Println()
		if csvdir != "" {
			path := filepath.Join(csvdir, fmt.Sprintf("fig5_%s_%s.csv", spec.app, sc.Side))
			f, err := os.Create(path)
			if err != nil {
				fatal("fig5 csv: %v", err)
			}
			if err := sc.WriteCSV(f); err != nil {
				fatal("fig5 csv: %v", err)
			}
			f.Close()
			fmt.Printf("wrote %s (%d points)\n", path, len(sc.Points))
		}
		if svgdir != "" {
			pts := make([]plot.ScatterPoint, len(sc.Points))
			for i, p := range sc.Points {
				pts[i] = plot.ScatterPoint{X: p.RelT, Y: float64(p.Elem)}
			}
			path := filepath.Join(svgdir, fmt.Sprintf("fig5_%s_%s.svg", spec.app, sc.Side))
			f, err := os.Create(path)
			if err != nil {
				fatal("fig5 svg: %v", err)
			}
			if err := plot.WriteScatterSVG(f, spec.caption, "relative interval time", "element offset", pts); err != nil {
				fatal("fig5 svg: %v", err)
			}
			f.Close()
			fmt.Printf("wrote %s\n", path)
		}
	}
}

func table2(runs map[string]*tracer.Run) {
	header("Table II — production and consumption average patterns")
	var rows []*pattern.Analysis
	for _, name := range apps.Names {
		rows = append(rows, pattern.Analyze(runs[name]))
	}
	fmt.Print(pattern.FormatTableII(rows))
}

func fig6a(reports map[string]*core.Report, svgdir string) {
	header("Figure 6a — speedup of the overlapped execution (250 MB/s testbed)")
	fmt.Printf("%-12s %14s %14s\n", "app", "real patterns", "ideal patterns")
	var groups []plot.BarGroup
	for _, name := range apps.Names {
		rep := reports[name]
		fmt.Printf("%-12s %14.3f %14.3f\n", name, rep.SpeedupReal, rep.SpeedupIdeal)
		groups = append(groups, plot.BarGroup{Label: name, Values: []float64{rep.SpeedupReal, rep.SpeedupIdeal}})
	}
	if svgdir != "" {
		path := filepath.Join(svgdir, "fig6a_speedup.svg")
		f, err := os.Create(path)
		if err != nil {
			fatal("fig6a svg: %v", err)
		}
		if err := plot.WriteBarsSVG(f, "Fig. 6a — overlap speedup", "speedup (x)",
			[]string{"real patterns", "ideal patterns"}, groups); err != nil {
			fatal("fig6a svg: %v", err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", path)
	}
}

func fig6b(reports map[string]*core.Report) {
	header("Figure 6b — bandwidth needed by the overlapped execution to match the non-overlapped at 250 MB/s")
	fmt.Printf("%-12s %s\n", "app", "real | ideal")
	for _, name := range apps.Names {
		rep := reports[name]
		re, err := rep.RelaxedBandwidth(core.FlavorReal, metrics.DefaultSearch())
		if err != nil {
			fatal("fig6b %s: %v", name, err)
		}
		id, err := rep.RelaxedBandwidth(core.FlavorIdeal, metrics.DefaultSearch())
		if err != nil {
			fatal("fig6b %s: %v", name, err)
		}
		fmt.Printf("%-12s %18s | %18s\n", name, metrics.FormatMBps(re), metrics.FormatMBps(id))
	}
}

func fig6c(reports map[string]*core.Report) {
	header("Figure 6c — bandwidth the non-overlapped execution needs to match the overlapped at 250 MB/s")
	fmt.Printf("%-12s %s\n", "app", "real | ideal (x = factor over 250 MB/s)")
	for _, name := range apps.Names {
		rep := reports[name]
		re, err := rep.EquivalentBandwidth(core.FlavorReal, metrics.DefaultSearch())
		if err != nil {
			fatal("fig6c %s: %v", name, err)
		}
		id, err := rep.EquivalentBandwidth(core.FlavorIdeal, metrics.DefaultSearch())
		if err != nil {
			fatal("fig6c %s: %v", name, err)
		}
		fmt.Printf("%-12s %18s (%.2fx) | %18s (%sx)\n", name,
			metrics.FormatMBps(re), metrics.BandwidthFactor(re, 250),
			metrics.FormatMBps(id), factorStr(metrics.BandwidthFactor(id, 250)))
	}
}

func factorStr(f float64) string {
	if math.IsInf(f, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", f)
}
