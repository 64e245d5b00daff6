// Package network describes the configurable parallel platform on which the
// simulator (the Dimemas equivalent) reconstructs application behaviour.
//
// The model follows the paper's description of Dimemas: a linear
// point-to-point cost T = Latency + Size/Bandwidth, a finite pool of global
// buses bounding how many messages may be in flight concurrently, and a
// number of input/output ports per processor bounding each node's injection
// and drain rate. CPU bursts are converted from instruction counts to
// seconds with an average MIPS rate, exactly as the paper's tracer does.
// That platform is the one-rank-per-node case of Platform (platform.go),
// which Testbed builds; hierarchical platforms add nodes that hold several
// ranks and a second, intra-node link class.
package network

// Testbed returns the paper's experimental platform: the MareNostrum-like
// system of Section IV — PowerPC 970 nodes at 2.3 GHz joined by a Myrinet
// network with 250 MB/s unidirectional bandwidth, one rank per node. The
// MIPS figure models the observed average rate of one core (the paper
// scales instructions by the measured rate; 2300 MIPS ≈ one instruction per
// cycle at 2.3 GHz). The 8 microsecond latency is typical for the Myrinet
// generation deployed in MareNostrum. The bus count is application
// specific (Table I); callers set it via TestbedFor or WithBuses.
func Testbed(processors int) Platform {
	return flat(processors, Link{LatencySec: 8e-6, BandwidthMBps: 250})
}

// flat returns the one-rank-per-node platform whose every transfer
// crosses the given link: the testbed's ports, compute rate and protocol
// with unlimited buses. Block mapping on one rank per node places rank i
// on node i, and the intra link is never reached.
func flat(processors int, l Link) Platform {
	return Platform{
		Processors:          processors,
		Nodes:               processors,
		Mapping:             BlockMapping(),
		Intra:               l,
		Inter:               l,
		InPorts:             1,
		OutPorts:            1,
		MIPS:                2300,
		EagerThresholdBytes: -1, // Dimemas default: asynchronous sends
		RelativeSpeed:       1,
	}
}

// TableIBuses reproduces Table I of the paper: the number of Dimemas buses
// that calibrated each application's simulation against the real
// MareNostrum run.
var TableIBuses = map[string]int{
	"sweep3d":   12,
	"pop":       12,
	"alya":      11,
	"specfem3d": 8,
	"bt":        22,
	"cg":        6,
}

// TestbedFor returns the testbed calibrated for the named application
// (lower-case, as in TableIBuses). Unknown names get the plain testbed
// with unlimited buses.
func TestbedFor(app string, processors int) Platform {
	p := Testbed(processors)
	p.Buses = TableIBuses[app]
	return p
}
