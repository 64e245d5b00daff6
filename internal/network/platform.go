package network

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/faults"
)

// Hierarchical platform model: a cluster of Nodes, a rank→node Mapping, and
// two link classes. Communication between ranks placed on the same node
// crosses the Intra link (shared memory: low latency, high bandwidth,
// bounded by a per-node bus pool); communication between ranks on different
// nodes crosses the Inter link (the NIC and interconnect: per-node
// injection/drain ports plus a global bus pool). The flat Config is the
// degenerate one-rank-per-node case — Config.Platform() — on which every
// transfer is inter-node and the model collapses to the validated
// single-link Dimemas platform.

// Link is one link class of the platform: the linear point-to-point cost
// model T = LatencySec + bytes/BandwidthMBps.
type Link struct {
	// LatencySec is the per-message latency in seconds.
	LatencySec float64
	// BandwidthMBps is the unidirectional bandwidth in MB/s (1 MB = 1e6
	// bytes). +Inf means zero serialization cost.
	BandwidthMBps float64
}

// Validate reports the first implausible link parameter.
func (l Link) Validate() error {
	switch {
	case l.LatencySec < 0:
		return fmt.Errorf("network: negative link latency %g", l.LatencySec)
	case l.BandwidthMBps <= 0 && !math.IsInf(l.BandwidthMBps, 1):
		return fmt.Errorf("network: link bandwidth %g MB/s, must be positive or +Inf", l.BandwidthMBps)
	}
	return nil
}

// SerializationSec returns the time a message occupies the link's
// serializing resources: size divided by bandwidth.
func (l Link) SerializationSec(bytes int64) float64 {
	if math.IsInf(l.BandwidthMBps, 1) {
		return 0
	}
	return float64(bytes) / (l.BandwidthMBps * 1e6)
}

// TransferSec returns the flight time of a message on this link class.
func (l Link) TransferSec(bytes int64) float64 {
	return l.LatencySec + l.SerializationSec(bytes)
}

// ---------------------------------------------------------------------------
// Rank → node mapping

// MappingKind selects how ranks are placed onto nodes.
type MappingKind uint8

// The three placement policies.
const (
	// MapBlock places consecutive ranks on the same node (rank/perNode),
	// the common MPI default.
	MapBlock MappingKind = iota
	// MapRoundRobin deals ranks across nodes cyclically (rank % nodes).
	MapRoundRobin
	// MapExplicit reads the node of rank i from Explicit[i].
	MapExplicit
)

// Mapping describes a rank→node placement.
type Mapping struct {
	Kind MappingKind
	// Explicit is the per-rank node list for MapExplicit; ignored
	// otherwise.
	Explicit []int
}

// BlockMapping returns the consecutive-ranks placement.
func BlockMapping() Mapping { return Mapping{Kind: MapBlock} }

// RoundRobinMapping returns the cyclic placement.
func RoundRobinMapping() Mapping { return Mapping{Kind: MapRoundRobin} }

// ExplicitMapping places rank i on nodes[i].
func ExplicitMapping(nodes []int) Mapping { return Mapping{Kind: MapExplicit, Explicit: nodes} }

// ParseMapping reads a mapping from its CLI spelling: "block",
// "rr"/"round-robin", or an explicit comma-separated node list like
// "0,0,1,1".
func ParseMapping(s string) (Mapping, error) {
	switch strings.TrimSpace(s) {
	case "block":
		return BlockMapping(), nil
	case "rr", "round-robin", "roundrobin":
		return RoundRobinMapping(), nil
	}
	parts := strings.Split(s, ",")
	nodes := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return Mapping{}, fmt.Errorf("network: bad mapping %q (want block, rr, or a node list like 0,0,1,1)", s)
		}
		nodes = append(nodes, v)
	}
	return ExplicitMapping(nodes), nil
}

// String returns the CLI spelling of the mapping.
func (m Mapping) String() string {
	switch m.Kind {
	case MapBlock:
		return "block"
	case MapRoundRobin:
		return "rr"
	case MapExplicit:
		parts := make([]string, len(m.Explicit))
		for i, n := range m.Explicit {
			parts[i] = strconv.Itoa(n)
		}
		return strings.Join(parts, ",")
	default:
		return fmt.Sprintf("mapping(%d)", uint8(m.Kind))
	}
}

// NodeOf places one rank under this mapping on a platform of the given
// rank and node counts. Callers must have validated the mapping.
func (m Mapping) NodeOf(rank, ranks, nodes int) int {
	switch m.Kind {
	case MapRoundRobin:
		return rank % nodes
	case MapExplicit:
		return m.Explicit[rank]
	default: // MapBlock
		perNode := (ranks + nodes - 1) / nodes
		return rank / perNode
	}
}

// validate checks the mapping against a platform shape.
func (m Mapping) validate(ranks, nodes int) error {
	switch m.Kind {
	case MapBlock, MapRoundRobin:
		return nil
	case MapExplicit:
		if len(m.Explicit) < ranks {
			return fmt.Errorf("network: explicit mapping lists %d ranks, platform has %d", len(m.Explicit), ranks)
		}
		for r := 0; r < ranks; r++ {
			if n := m.Explicit[r]; n < 0 || n >= nodes {
				return fmt.Errorf("network: explicit mapping places rank %d on node %d, platform has %d nodes", r, n, nodes)
			}
		}
		return nil
	default:
		return fmt.Errorf("network: unknown mapping kind %d", m.Kind)
	}
}

// ---------------------------------------------------------------------------
// Platform

// Platform is the hierarchical multi-node platform: Processors ranks placed
// on Nodes nodes by Mapping, with the Intra link class inside a node and
// the Inter link class across the interconnect.
type Platform struct {
	// Processors is the total number of simulated ranks.
	Processors int
	// Nodes is the number of nodes ranks are placed on.
	Nodes int
	// Mapping places each rank on a node.
	Mapping Mapping
	// Intra is the shared-memory link class used by transfers whose
	// endpoints share a node.
	Intra Link
	// IntraBuses bounds, per node, how many intra-node transfers may be
	// serializing concurrently (the memory-channel pool). Zero means
	// unlimited.
	IntraBuses int
	// Inter is the interconnect link class used by transfers whose
	// endpoints sit on different nodes.
	Inter Link
	// Buses is the global interconnect bus pool: the maximum number of
	// inter-node messages in flight concurrently. Zero means unlimited.
	Buses int
	// InPorts and OutPorts bound, per node, how many inter-node transfers
	// may be draining into and injecting out of its NIC simultaneously.
	// Zero means unlimited. On a one-rank-per-node platform these are the
	// flat model's per-processor ports.
	InPorts  int
	OutPorts int
	// MIPS converts compute-burst instruction counts to seconds.
	MIPS float64
	// EagerThresholdBytes selects the send protocol exactly as in Config.
	EagerThresholdBytes int64
	// RelativeSpeed scales compute-burst durations (1.0 = testbed speed).
	RelativeSpeed float64
	// CongestionFactor enables the nonlinear congestion extension for
	// inter-node transfers, relative to the global bus pool; intra-node
	// transfers never congest the interconnect.
	CongestionFactor float64
	// Degradations declares the fault-injection scenario the replay
	// engine applies on this platform: bandwidth derating, deterministic
	// latency jitter, compute stragglers, downed NICs/links. The zero
	// value is the healthy platform and digests identically to a
	// platform that predates the field (see digest.go).
	Degradations faults.Spec
}

// Platform lifts the flat configuration to its degenerate hierarchical
// form: one rank per node, identical intra and inter links, per-processor
// ports becoming per-node ports. Replaying any trace on it reproduces the
// flat model exactly.
func (c Config) Platform() Platform {
	l := Link{LatencySec: c.LatencySec, BandwidthMBps: c.BandwidthMBps}
	return Platform{
		Processors:          c.Processors,
		Nodes:               c.Processors,
		Mapping:             BlockMapping(),
		Intra:               l,
		IntraBuses:          0,
		Inter:               l,
		Buses:               c.Buses,
		InPorts:             c.InPorts,
		OutPorts:            c.OutPorts,
		MIPS:                c.MIPS,
		EagerThresholdBytes: c.EagerThresholdBytes,
		RelativeSpeed:       c.RelativeSpeed,
		CongestionFactor:    c.CongestionFactor,
	}
}

// Validate reports the first implausible parameter.
func (p Platform) Validate() error {
	switch {
	case p.Processors <= 0:
		return fmt.Errorf("network: Processors=%d, must be positive", p.Processors)
	case p.Nodes <= 0:
		return fmt.Errorf("network: Nodes=%d, must be positive", p.Nodes)
	case p.IntraBuses < 0:
		return fmt.Errorf("network: IntraBuses=%d, must be non-negative", p.IntraBuses)
	case p.Buses < 0:
		return fmt.Errorf("network: Buses=%d, must be non-negative", p.Buses)
	case p.InPorts < 0 || p.OutPorts < 0:
		return fmt.Errorf("network: ports in=%d out=%d, must be non-negative", p.InPorts, p.OutPorts)
	case p.MIPS <= 0:
		return fmt.Errorf("network: MIPS=%g, must be positive", p.MIPS)
	case p.RelativeSpeed <= 0:
		return fmt.Errorf("network: RelativeSpeed=%g, must be positive", p.RelativeSpeed)
	case p.CongestionFactor < 0:
		return fmt.Errorf("network: CongestionFactor=%g, must be non-negative", p.CongestionFactor)
	}
	if err := p.Intra.Validate(); err != nil {
		return fmt.Errorf("intra %w", err)
	}
	if err := p.Inter.Validate(); err != nil {
		return fmt.Errorf("inter %w", err)
	}
	if err := p.Degradations.ValidateFor(p.Processors, p.Nodes); err != nil {
		return err
	}
	return p.Mapping.validate(p.Processors, p.Nodes)
}

// NodeOf returns the node hosting the given rank.
func (p Platform) NodeOf(rank int) int {
	return p.Mapping.NodeOf(rank, p.Processors, p.Nodes)
}

// NodeTable materializes the full rank→node assignment.
func (p Platform) NodeTable() []int {
	t := make([]int, p.Processors)
	for r := range t {
		t[r] = p.NodeOf(r)
	}
	return t
}

// MultiNode reports whether any two ranks share a node — i.e. whether the
// intra link class is reachable at all.
func (p Platform) MultiNode() bool {
	seen := make(map[int]bool, p.Nodes)
	for r := 0; r < p.Processors; r++ {
		n := p.NodeOf(r)
		if seen[n] {
			return true
		}
		seen[n] = true
	}
	return false
}

// ComputeSec converts an instruction count to seconds on this platform.
func (p Platform) ComputeSec(instr int64) float64 {
	return float64(instr) / (p.MIPS * 1e6 * p.RelativeSpeed)
}

// Eager reports whether a message of the given size uses the eager
// protocol.
func (p Platform) Eager(bytes int64) bool {
	if p.EagerThresholdBytes < 0 {
		return true
	}
	return bytes <= p.EagerThresholdBytes
}

// LinkFor returns the link class a transfer of the given locality crosses.
func (p Platform) LinkFor(intra bool) Link {
	if intra {
		return p.Intra
	}
	return p.Inter
}

// WithNodes returns a copy of the platform re-clustered onto n nodes.
func (p Platform) WithNodes(n int) Platform {
	p.Nodes = n
	return p
}

// WithMapping returns a copy of the platform with the placement replaced.
func (p Platform) WithMapping(m Mapping) Platform {
	p.Mapping = m
	return p
}

// WithProcessors returns a copy of the platform resized to n ranks.
func (p Platform) WithProcessors(n int) Platform {
	p.Processors = n
	return p
}

// WithInterBandwidth returns a copy with the interconnect bandwidth
// replaced — the hierarchical primitive behind the Fig. 6b/6c searches.
func (p Platform) WithInterBandwidth(mbps float64) Platform {
	p.Inter.BandwidthMBps = mbps
	return p
}

// WithInterLatency returns a copy with the interconnect latency replaced —
// the latency analogue of WithInterBandwidth for scenario sweeps.
func (p Platform) WithInterLatency(sec float64) Platform {
	p.Inter.LatencySec = sec
	return p
}

// WithBuses returns a copy with the global interconnect bus pool resized.
func (p Platform) WithBuses(buses int) Platform {
	p.Buses = buses
	return p
}

// WithDegradations returns a copy with the fault-injection spec
// replaced.
func (p Platform) WithDegradations(d faults.Spec) Platform {
	p.Degradations = d
	return p
}

// WithDerateInter returns a copy with the interconnect bandwidth derate
// factor replaced — the platform primitive behind the "derate" scenario
// axis. A factor of 1 (or 0) is the healthy platform.
func (p Platform) WithDerateInter(f float64) Platform {
	p.Degradations.DerateInter = f
	return p
}

// WithJitter returns a copy with the deterministic latency jitter
// fraction replaced — the primitive behind the "jitter" scenario axis.
func (p Platform) WithJitter(frac float64) Platform {
	p.Degradations.JitterFrac = frac
	return p
}

// WithStragglers returns a copy with k seeded straggler ranks — the
// primitive behind the "stragglers" scenario axis. When the spec names
// no slowdown yet, the factor defaults to 2 (each straggler computes at
// half speed) so a bare count axis has an effect.
func (p Platform) WithStragglers(k int) Platform {
	p.Degradations.Stragglers = k
	if k > 0 && p.Degradations.StragglerFactor == 0 {
		p.Degradations.StragglerFactor = 2
	}
	return p
}

// WithLinkDown returns a copy with k seeded downed inter-node links —
// the primitive behind the "link-down" scenario axis.
func (p Platform) WithLinkDown(k int) Platform {
	p.Degradations.LinkDown = k
	return p
}

// RanksPerNode returns the block-mapping capacity ceil(Processors/Nodes),
// the natural "cores per node" figure of the platform.
func (p Platform) RanksPerNode() int {
	return (p.Processors + p.Nodes - 1) / p.Nodes
}

// Describe renders a one-line human summary of the platform.
func (p Platform) Describe() string {
	suffix := ""
	if d := p.Degradations.Describe(); d != "" {
		suffix = ", degraded: " + d
	}
	if !p.MultiNode() {
		return fmt.Sprintf("%d ranks on %d nodes (flat), link %.0f MB/s %.1f us, %d buses, %d/%d ports%s",
			p.Processors, p.Nodes, p.Inter.BandwidthMBps, p.Inter.LatencySec*1e6, p.Buses, p.InPorts, p.OutPorts, suffix)
	}
	return fmt.Sprintf("%d ranks on %d nodes (map %s), intra %.0f MB/s %.2f us (%d buses/node), inter %.0f MB/s %.2f us (%d buses, %d/%d ports/node)%s",
		p.Processors, p.Nodes, p.Mapping,
		p.Intra.BandwidthMBps, p.Intra.LatencySec*1e6, p.IntraBuses,
		p.Inter.BandwidthMBps, p.Inter.LatencySec*1e6, p.Buses, p.InPorts, p.OutPorts, suffix)
}
