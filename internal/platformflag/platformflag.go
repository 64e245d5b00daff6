// Package platformflag is the one place the CLIs declare and resolve their
// platform flags, so every command spells -platform, -preset, -nodes,
// -map, -bw, -lat, -buses, and -dump-platform the same way and resolves
// them in the same precedence order:
//
//  1. -platform file.json loads a platform file (hierarchical or flat
//     schema, see network.ReadAnyPlatform);
//  2. otherwise -preset resolves a named preset (network.PlatformPreset);
//  3. otherwise the app-calibrated testbed (network.TestbedFor, one rank
//     per node) applies;
//  4. the -nodes, -map, -bw (inter bandwidth), -lat (inter latency, us),
//     and -buses (global pool; -1 keeps the calibrated value) overrides
//     are applied on top, in that order;
//  5. the degradation overrides (-derate, -jitter, -stragglers,
//     -straggler-factor, -link-down, -fault-seed) follow — they fill the
//     platform's fault-injection spec (see internal/faults), all
//     deterministic, all default-off;
//  6. -dump-platform prints the resolved platform as JSON so a run's
//     exact platform can be captured into a file and replayed anywhere.
package platformflag

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/network"
	"repro/internal/telemetry"
)

// Flags holds the registered flag values until Resolve.
type Flags struct {
	preset  *string
	file    *string
	nodes   *int
	mapping *string
	bw      *float64
	latUs   *float64
	buses   *int
	dump    *bool

	derate     *float64
	jitter     *float64
	stragglers *int
	stragMul   *float64
	linkDown   *int
	faultSeed  *uint64
}

// Register declares the shared platform flags on fs (pass
// flag.CommandLine in a main).
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		preset:  fs.String("preset", "", "platform preset: "+fmt.Sprint(network.PresetNames())+" (default: app-calibrated testbed)"),
		file:    fs.String("platform", "", "platform JSON file (hierarchical or flat schema; overrides -preset)"),
		nodes:   fs.Int("nodes", 0, "re-cluster the platform onto N nodes (0 = keep)"),
		mapping: fs.String("map", "", "rank->node mapping: block|rr|explicit list like 0,0,1,1 (default: keep)"),
		bw:      fs.Float64("bw", 0, "override inter-node bandwidth in MB/s (0 = keep)"),
		latUs:   fs.Float64("lat", -1, "override inter-node latency in microseconds (negative = keep)"),
		buses:   fs.Int("buses", -1, "override global buses, 0 = unlimited (-1 = keep calibration)"),
		dump:    fs.Bool("dump-platform", false, "print the resolved platform as JSON and exit"),

		derate:     fs.Float64("derate", 0, "degrade inter-node bandwidth to this fraction of healthy, in (0,1] (0 = healthy)"),
		jitter:     fs.Float64("jitter", 0, "deterministic inter-node latency jitter fraction, e.g. 0.2 adds up to +20% per transfer (0 = none)"),
		stragglers: fs.Int("stragglers", 0, "slow down this many seeded ranks by -straggler-factor (0 = none)"),
		stragMul:   fs.Float64("straggler-factor", 0, "compute slowdown multiplier for straggler ranks (0 with -stragglers defaults to 2)"),
		linkDown:   fs.Int("link-down", 0, "sever this many seeded inter-node links (0 = none)"),
		faultSeed:  fs.Uint64("fault-seed", 0, "extra seed folded into the deterministic fault draws (straggler picks, downed links, jitter)"),
	}
}

// Resolve builds the active platform for the given application (used for
// Table I bus calibration when no preset or file is named) and rank count.
func (f *Flags) Resolve(app string, ranks int) (network.Platform, error) {
	var plat network.Platform
	switch {
	case *f.file != "":
		p, err := network.ReadPlatformFile(*f.file)
		if err != nil {
			return network.Platform{}, err
		}
		if p.Processors < ranks {
			return network.Platform{}, fmt.Errorf("platform file %s has %d processors, need %d", *f.file, p.Processors, ranks)
		}
		plat = p
	case *f.preset != "":
		p, err := network.PlatformPreset(*f.preset, ranks)
		if err != nil {
			return network.Platform{}, err
		}
		plat = p
	default:
		plat = network.TestbedFor(app, ranks)
	}
	// Every flag below applies unless it holds its keep value (0; -1 for
	// -buses; any negative -lat), so a NaN or out-of-range value reaches
	// Validate and fails instead of being ignored.
	if *f.nodes != 0 {
		plat = plat.WithNodes(*f.nodes)
	}
	if *f.mapping != "" {
		m, err := network.ParseMapping(*f.mapping)
		if err != nil {
			return network.Platform{}, err
		}
		plat = plat.WithMapping(m)
	}
	if *f.bw != 0 {
		plat = plat.WithInterBandwidth(*f.bw)
	}
	if !(*f.latUs < 0) { // NaN is not negative
		plat.Inter.LatencySec = *f.latUs * 1e-6
	}
	if *f.buses != -1 {
		plat.Buses = *f.buses
	}
	// Degradation overrides layer onto whatever fault spec the platform
	// file already carried; the zero value of each flag keeps it.
	if *f.derate != 0 {
		plat.Degradations.DerateInter = *f.derate
	}
	if *f.jitter != 0 {
		plat.Degradations.JitterFrac = *f.jitter
	}
	if *f.stragglers != 0 {
		plat.Degradations.Stragglers = *f.stragglers
		if plat.Degradations.StragglerFactor == 0 && *f.stragMul == 0 {
			plat.Degradations.StragglerFactor = 2
		}
	}
	if *f.stragMul != 0 {
		plat.Degradations.StragglerFactor = *f.stragMul
	}
	if *f.linkDown != 0 {
		plat.Degradations.LinkDown = *f.linkDown
	}
	if *f.faultSeed != 0 {
		plat.Degradations.Seed = *f.faultSeed
	}
	if err := plat.Validate(); err != nil {
		return network.Platform{}, err
	}
	return plat, nil
}

// Timings is the shared -timings flag: every CLI that runs simulations
// spells the per-stage telemetry summary the same way.
type Timings struct {
	on *bool
}

// RegisterTimings declares the shared -timings flag on fs.
func RegisterTimings(fs *flag.FlagSet) *Timings {
	return &Timings{
		on: fs.Bool("timings", false, "after the run, print a per-stage telemetry timing summary (compile/replay/copyout/emit, engine queue waits, PDES phases) to stderr"),
	}
}

// MaybeDump writes the process's telemetry timing summary to w when
// -timings was set; otherwise it does nothing. Call it once, after the
// run's work is finished.
func (t *Timings) MaybeDump(w io.Writer) {
	if *t.on {
		telemetry.WriteTimings(w, telemetry.Default())
	}
}

// DumpRequested reports whether -dump-platform was set; mains that see
// true should Dump and exit without running.
func (f *Flags) DumpRequested() bool { return *f.dump }

// Dump writes the resolved platform as JSON.
func (f *Flags) Dump(w io.Writer, p network.Platform) error {
	return p.WriteJSON(w)
}
