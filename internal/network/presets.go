package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/faults"
)

// Platform presets and JSON persistence: Dimemas reads its platform from a
// configuration file; this file provides the equivalent. The presets cover
// the networks the paper's introduction discusses — the Myrinet testbed and
// the InfiniBand QDR generation whose cost motivates the study — plus a
// commodity Ethernet point for contrast and two hierarchical multi-node
// shapes for placement studies.

// presetEntry is one row of the preset table. Keeping names, docs, and
// builders in one table means PresetNames can never drift from what
// PlatformPreset resolves.
type presetEntry struct {
	name     string
	describe string
	build    func(processors int) Platform
}

// presetTable is the single source of truth for all presets. The first
// five are one-rank-per-node platforms on one link class; the last two
// are hierarchical.
var presetTable = []presetEntry{
	{
		name:     "marenostrum",
		describe: "the paper's testbed: 250 MB/s, 8 us (default elsewhere)",
		build:    Testbed,
	},
	{
		name:     "ib-qdr",
		describe: "InfiniBand QDR: 1000 MB/s effective, 1.3 us MPI latency",
		build:    func(p int) Platform { return flat(p, Link{LatencySec: 1.3e-6, BandwidthMBps: 1000}) },
	},
	{
		name:     "ib-qdr-4x",
		describe: "four aggregated QDR links (4000 MB/s)",
		build:    func(p int) Platform { return flat(p, Link{LatencySec: 1.3e-6, BandwidthMBps: 4000}) },
	},
	{
		name:     "gige",
		describe: "commodity gigabit Ethernet: 125 MB/s, 50 us",
		build:    func(p int) Platform { return flat(p, Link{LatencySec: 50e-6, BandwidthMBps: 125}) },
	},
	{
		name:     "ideal",
		describe: "zero latency, infinite bandwidth, no contention",
		build: func(p int) Platform {
			pl := flat(p, Link{LatencySec: 0, BandwidthMBps: math.Inf(1)})
			pl.InPorts = 0
			pl.OutPorts = 0
			return pl
		},
	},
	{
		name:     "marenostrum-4x",
		describe: "the testbed as 4-way nodes: shared memory inside a blade, Myrinet across",
		build: func(p int) Platform {
			pl := Testbed(p)
			pl.Nodes = nodesFor(p, 4)
			pl.Intra = Link{LatencySec: 0.5e-6, BandwidthMBps: 6000}
			pl.IntraBuses = 4
			return pl
		},
	},
	{
		name:     "fatnode-smp",
		describe: "modern fat nodes: 16 ranks/node over shared memory, IB QDR NICs between",
		build: func(p int) Platform {
			pl := Testbed(p)
			pl.Nodes = nodesFor(p, 16)
			pl.Intra = Link{LatencySec: 0.2e-6, BandwidthMBps: 12000}
			pl.Inter = Link{LatencySec: 1.3e-6, BandwidthMBps: 1000}
			pl.InPorts = 2
			pl.OutPorts = 2
			return pl
		},
	},
}

// nodesFor computes how many nodes hold processors ranks at perNode each.
func nodesFor(processors, perNode int) int {
	n := (processors + perNode - 1) / perNode
	if n < 1 {
		n = 1
	}
	return n
}

// PlatformPreset returns the named platform; PresetNames lists what
// resolves.
func PlatformPreset(name string, processors int) (Platform, error) {
	for _, e := range presetTable {
		if e.name == name {
			return e.build(processors), nil
		}
	}
	return Platform{}, fmt.Errorf("network: unknown preset %q (known: %v)", name, PresetNames())
}

// PresetNames lists the available presets, sorted.
func PresetNames() []string {
	names := make([]string, len(presetTable))
	for i, e := range presetTable {
		names[i] = e.name
	}
	sort.Strings(names)
	return names
}

// PresetDescriptions returns a name→summary table for CLI help text.
func PresetDescriptions() map[string]string {
	m := make(map[string]string, len(presetTable))
	for _, e := range presetTable {
		m[e.name] = e.describe
	}
	return m
}

// ---------------------------------------------------------------------------
// JSON persistence

// flatJSON is the flat platform file schema: one rank per node on one
// link class, the paper's platform. ReadAnyPlatform accepts it;
// Platform.WriteJSON writes the hierarchical schema.
type flatJSON struct {
	Processors          int     `json:"processors"`
	LatencySec          float64 `json:"latency_sec"`
	BandwidthMBps       any     `json:"bandwidth_mbps"`
	Buses               int     `json:"buses"`
	InPorts             int     `json:"in_ports"`
	OutPorts            int     `json:"out_ports"`
	MIPS                float64 `json:"mips"`
	EagerThresholdBytes int64   `json:"eager_threshold_bytes"`
	RelativeSpeed       float64 `json:"relative_speed"`
}

// readFlatJSON parses a flat platform file into its one-rank-per-node
// platform and validates it.
func readFlatJSON(r io.Reader) (Platform, error) {
	var j flatJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return Platform{}, fmt.Errorf("network: parse config: %w", err)
	}
	bw, err := decodeBW(j.BandwidthMBps)
	if err != nil {
		return Platform{}, err
	}
	l := Link{LatencySec: j.LatencySec, BandwidthMBps: bw}
	if err := l.Validate(); err != nil {
		return Platform{}, err // the document's one link has no class
	}
	p := Platform{
		Processors:          j.Processors,
		Nodes:               j.Processors,
		Mapping:             BlockMapping(),
		Intra:               l,
		Inter:               l,
		Buses:               j.Buses,
		InPorts:             j.InPorts,
		OutPorts:            j.OutPorts,
		MIPS:                j.MIPS,
		EagerThresholdBytes: j.EagerThresholdBytes,
		RelativeSpeed:       j.RelativeSpeed,
	}
	if err := p.Validate(); err != nil {
		return Platform{}, err
	}
	return p, nil
}

// encodeBW spells +Inf bandwidth as the string "inf", since JSON has no
// Inf literal; decodeBW reads it back.
func encodeBW(bw float64) any {
	if math.IsInf(bw, 1) {
		return "inf"
	}
	return bw
}

func decodeBW(v any) (float64, error) {
	switch bw := v.(type) {
	case string:
		if bw != "inf" {
			return 0, fmt.Errorf("network: bad bandwidth %q", bw)
		}
		return math.Inf(1), nil
	case float64:
		return bw, nil
	case nil:
		return 0, fmt.Errorf("network: missing bandwidth")
	default:
		return 0, fmt.Errorf("network: bad bandwidth type %T", bw)
	}
}

// linkJSON mirrors Link for serialization.
type linkJSON struct {
	LatencySec    float64 `json:"latency_sec"`
	BandwidthMBps any     `json:"bandwidth_mbps"`
}

func (l Link) toJSON() linkJSON {
	return linkJSON{LatencySec: l.LatencySec, BandwidthMBps: encodeBW(l.BandwidthMBps)}
}

func (j linkJSON) toLink() (Link, error) {
	bw, err := decodeBW(j.BandwidthMBps)
	if err != nil {
		return Link{}, err
	}
	return Link{LatencySec: j.LatencySec, BandwidthMBps: bw}, nil
}

// platformJSON mirrors Platform. The mapping is either the string "block",
// the string "rr", or an explicit per-rank node array.
type platformJSON struct {
	Processors          int      `json:"processors"`
	Nodes               int      `json:"nodes"`
	Mapping             any      `json:"mapping"`
	Intra               linkJSON `json:"intra"`
	IntraBuses          int      `json:"intra_buses"`
	Inter               linkJSON `json:"inter"`
	Buses               int      `json:"buses"`
	InPorts             int      `json:"in_ports"`
	OutPorts            int      `json:"out_ports"`
	MIPS                float64  `json:"mips"`
	EagerThresholdBytes int64    `json:"eager_threshold_bytes"`
	RelativeSpeed       float64  `json:"relative_speed"`
	CongestionFactor    float64  `json:"congestion_factor"`
	// Degradations is optional: absent in healthy platform files (so
	// files written before the field existed round-trip unchanged) and
	// in files written for healthy platforms.
	Degradations *faults.Spec `json:"degradations,omitempty"`
}

// WriteJSON serializes the platform.
func (p Platform) WriteJSON(w io.Writer) error {
	var mapping any
	switch p.Mapping.Kind {
	case MapBlock:
		mapping = "block"
	case MapRoundRobin:
		mapping = "rr"
	case MapExplicit:
		mapping = p.Mapping.Explicit
	}
	j := platformJSON{
		Processors:          p.Processors,
		Nodes:               p.Nodes,
		Mapping:             mapping,
		Intra:               p.Intra.toJSON(),
		IntraBuses:          p.IntraBuses,
		Inter:               p.Inter.toJSON(),
		Buses:               p.Buses,
		InPorts:             p.InPorts,
		OutPorts:            p.OutPorts,
		MIPS:                p.MIPS,
		EagerThresholdBytes: p.EagerThresholdBytes,
		RelativeSpeed:       p.RelativeSpeed,
		CongestionFactor:    p.CongestionFactor,
	}
	if d := p.Degradations.Canonical(); !d.IsZero() {
		j.Degradations = &d
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(j)
}

// readPlatformJSON parses a platform written by Platform.WriteJSON and
// validates it.
func readPlatformJSON(r io.Reader) (Platform, error) {
	var j platformJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return Platform{}, fmt.Errorf("network: parse platform: %w", err)
	}
	intra, err := j.Intra.toLink()
	if err != nil {
		return Platform{}, fmt.Errorf("network: intra link: %w", err)
	}
	inter, err := j.Inter.toLink()
	if err != nil {
		return Platform{}, fmt.Errorf("network: inter link: %w", err)
	}
	p := Platform{
		Processors:          j.Processors,
		Nodes:               j.Nodes,
		Intra:               intra,
		IntraBuses:          j.IntraBuses,
		Inter:               inter,
		Buses:               j.Buses,
		InPorts:             j.InPorts,
		OutPorts:            j.OutPorts,
		MIPS:                j.MIPS,
		EagerThresholdBytes: j.EagerThresholdBytes,
		RelativeSpeed:       j.RelativeSpeed,
		CongestionFactor:    j.CongestionFactor,
	}
	if j.Degradations != nil {
		p.Degradations = *j.Degradations
	}
	switch m := j.Mapping.(type) {
	case string:
		p.Mapping, err = ParseMapping(m)
		if err != nil {
			return Platform{}, err
		}
	case []any:
		nodes := make([]int, len(m))
		for i, v := range m {
			f, ok := v.(float64)
			if !ok || f != math.Trunc(f) {
				return Platform{}, fmt.Errorf("network: bad mapping entry %v", v)
			}
			nodes[i] = int(f)
		}
		p.Mapping = ExplicitMapping(nodes)
	case nil:
		p.Mapping = BlockMapping()
	default:
		return Platform{}, fmt.Errorf("network: bad mapping type %T", m)
	}
	if err := p.Validate(); err != nil {
		return Platform{}, err
	}
	return p, nil
}

// ReadAnyPlatform parses either a hierarchical platform file (the
// Platform.WriteJSON schema, recognized by its "nodes" key) or a flat
// file (one rank per node and one link class). This is the decoder behind
// every CLI's -platform flag and the service's inline platforms, so both
// generations of files work everywhere.
func ReadAnyPlatform(r io.Reader) (Platform, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return Platform{}, fmt.Errorf("network: read platform: %w", err)
	}
	var probe map[string]any
	if err := json.Unmarshal(raw, &probe); err != nil {
		return Platform{}, fmt.Errorf("network: parse platform: %w", err)
	}
	if _, hier := probe["nodes"]; hier {
		return readPlatformJSON(bytes.NewReader(raw))
	}
	return readFlatJSON(bytes.NewReader(raw))
}

// ReadPlatformFile opens and parses a platform file via ReadAnyPlatform.
func ReadPlatformFile(path string) (Platform, error) {
	f, err := os.Open(path)
	if err != nil {
		return Platform{}, fmt.Errorf("network: %w", err)
	}
	defer f.Close()
	p, err := ReadAnyPlatform(f)
	if err != nil {
		return Platform{}, fmt.Errorf("network: %s: %w", path, err)
	}
	return p, nil
}
