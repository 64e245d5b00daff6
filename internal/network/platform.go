package network

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/trace"
)

// Hierarchical platform model: a cluster of Nodes, a rank→node Mapping, and
// two link classes. Communication between ranks placed on the same node
// crosses the Intra link (shared memory: low latency, high bandwidth,
// bounded by a per-node bus pool); communication between ranks on different
// nodes crosses the Inter link (the NIC and interconnect: per-node
// injection/drain ports plus a global bus pool). Testbed and the flat
// presets are the one-rank-per-node case, on which every transfer is
// inter-node and the model collapses to the validated single-link
// Dimemas platform.

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
func (l Link) Validate() error { return l.validate("link") }

// validate is Validate naming the link as class ("intra link", ...).
func (l Link) validate(class string) error {
	switch {
	case !finite(l.LatencySec):
		return fmt.Errorf("network: %s latency %g, must be finite", class, l.LatencySec)
	case l.LatencySec < 0:
		return fmt.Errorf("network: negative %s latency %g", class, l.LatencySec)
	case !(l.BandwidthMBps > 0): // NaN fails every comparison; +Inf passes
		return fmt.Errorf("network: %s bandwidth %g MB/s, must be positive or +Inf", class, l.BandwidthMBps)
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
	// MIPS converts compute-burst instruction counts to seconds:
	// seconds = instructions / (MIPS * 1e6).
	MIPS float64
	// EagerThresholdBytes selects the send protocol. Messages of at most
	// this size complete on the sender as soon as they are injected
	// (eager); larger messages use rendezvous and additionally wait for
	// the matching receive to be posted. A negative value disables
	// rendezvous entirely.
	EagerThresholdBytes int64
	// RelativeSpeed scales compute-burst durations (1.0 = testbed speed).
	// Values above 1 simulate faster CPUs, which stresses the network.
	RelativeSpeed float64
	// CongestionFactor enables the nonlinear congestion extension of the
	// Dimemas model for inter-node transfers: each one's serialization
	// time is stretched by
	//
	//	1 + CongestionFactor * max(0, inflight/Buses - 1)
	//
	// where inflight counts the messages in the interconnect when the
	// transfer starts. Zero disables the extension (the validated linear
	// model); it only applies with a finite bus pool, and intra-node
	// transfers never congest the interconnect.
	CongestionFactor float64
	// Degradations declares the fault-injection scenario the replay
	// engine applies on this platform: bandwidth derating, deterministic
	// latency jitter, compute stragglers, downed NICs/links. The zero
	// value is the healthy platform and digests identically to a
	// platform that predates the field (see digest.go).
	Degradations faults.Spec
}

// MaxPoolUnits caps a platform's resource units, Buses + Nodes ×
// (IntraBuses + InPorts + OutPorts): a replay keeps one calendar per
// unit. Every preset fits under it at trace.MaxRanks processors.
const MaxPoolUnits = 1 << 20

// Validate reports the first implausible parameter. Processors and Nodes
// are at most trace.MaxRanks and the pools at most MaxPoolUnits units, so
// a platform's node table and resource calendars stay small whatever
// document it came from.
func (p Platform) Validate() error {
	switch {
	case p.Processors <= 0:
		return fmt.Errorf("network: Processors=%d, must be positive", p.Processors)
	case p.Processors > trace.MaxRanks:
		return fmt.Errorf("network: Processors=%d, must be at most %d", p.Processors, trace.MaxRanks)
	case p.Nodes <= 0:
		return fmt.Errorf("network: Nodes=%d, must be positive", p.Nodes)
	case p.Nodes > trace.MaxRanks:
		return fmt.Errorf("network: Nodes=%d, must be at most %d", p.Nodes, trace.MaxRanks)
	case p.IntraBuses < 0:
		return fmt.Errorf("network: IntraBuses=%d, must be non-negative", p.IntraBuses)
	case p.Buses < 0:
		return fmt.Errorf("network: Buses=%d, must be non-negative", p.Buses)
	case p.InPorts < 0 || p.OutPorts < 0:
		return fmt.Errorf("network: ports in=%d out=%d, must be non-negative", p.InPorts, p.OutPorts)
	case !finite(p.MIPS) || !finite(p.RelativeSpeed) || !finite(p.CongestionFactor):
		return fmt.Errorf("network: MIPS=%g RelativeSpeed=%g CongestionFactor=%g, must be finite",
			p.MIPS, p.RelativeSpeed, p.CongestionFactor)
	case p.MIPS <= 0:
		return fmt.Errorf("network: MIPS=%g, must be positive", p.MIPS)
	case p.RelativeSpeed <= 0:
		return fmt.Errorf("network: RelativeSpeed=%g, must be positive", p.RelativeSpeed)
	case p.CongestionFactor < 0:
		return fmt.Errorf("network: CongestionFactor=%g, must be non-negative", p.CongestionFactor)
	}
	if u := p.poolUnits(); u > MaxPoolUnits {
		return fmt.Errorf("network: %d buses + %d nodes × (%d intra buses + %d/%d ports) exceed %d pool units",
			p.Buses, p.Nodes, p.IntraBuses, p.InPorts, p.OutPorts, MaxPoolUnits)
	}
	if err := p.Intra.validate("intra link"); err != nil {
		return err
	}
	if err := p.Inter.validate("inter link"); err != nil {
		return err
	}
	if err := p.Degradations.ValidateFor(p.Processors, p.Nodes); err != nil {
		return err
	}
	return p.Mapping.validate(p.Processors, p.Nodes)
}

// finite reports whether v is neither NaN nor an infinity.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// poolUnits returns Buses + Nodes × (IntraBuses + InPorts + OutPorts) for
// a platform with non-negative pools and at most trace.MaxRanks nodes. A
// pool above MaxPoolUnits stands for the total, so the sum cannot
// overflow.
func (p Platform) poolUnits() int64 {
	for _, c := range []int{p.Buses, p.IntraBuses, p.InPorts, p.OutPorts} {
		if c > MaxPoolUnits {
			return int64(c)
		}
	}
	return int64(p.Buses) + int64(p.Nodes)*int64(p.IntraBuses+p.InPorts+p.OutPorts)
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

// Costs is the platform's cost model reduced to the scalars a replay
// reads for every compute burst, send and launch: the compute rate, the
// eager threshold, both link classes and the congestion parameters. Its
// methods are the only definitions of the compute, eager and congestion
// rules (Link holds the transfer cost). A replay takes it once from
// Platform.Costs and calls it through a pointer, so the per-record path
// never copies the Platform.
type Costs struct {
	intra, inter     Link
	computeRate      float64 // instructions per second: MIPS·1e6·RelativeSpeed
	eagerThreshold   int64
	congestionFactor float64
	buses            int
}

// Costs resolves the platform's cost model.
func (p Platform) Costs() Costs {
	return Costs{
		intra:            p.Intra,
		inter:            p.Inter,
		computeRate:      p.MIPS * 1e6 * p.RelativeSpeed,
		eagerThreshold:   p.EagerThresholdBytes,
		congestionFactor: p.CongestionFactor,
		buses:            p.Buses,
	}
}

// ComputeSec converts an instruction count to seconds.
func (c *Costs) ComputeSec(instr int64) float64 {
	return float64(instr) / c.computeRate
}

// Eager reports whether a message of the given size uses the eager
// protocol.
func (c *Costs) Eager(bytes int64) bool {
	return c.eagerThreshold < 0 || bytes <= c.eagerThreshold
}

// Link returns the link class a transfer of the given locality crosses.
func (c *Costs) Link(intra bool) Link {
	if intra {
		return c.intra
	}
	return c.inter
}

// Congested stretches the serialization time of an inter-node transfer
// that enters an interconnect already carrying inFlight messages: the
// nonlinear congestion extension (see Platform.CongestionFactor). Without a
// congestion factor or with an unlimited bus pool it returns ser as is.
func (c *Costs) Congested(ser float64, inFlight int) float64 {
	if c.congestionFactor > 0 && c.buses > 0 {
		if over := float64(inFlight)/float64(c.buses) - 1; over > 0 {
			ser *= 1 + c.congestionFactor*over
		}
	}
	return ser
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
// replaced — the hierarchical primitive behind bandwidth axes (Fig. 6).
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
