// Package network describes the configurable parallel platform on which the
// simulator (the Dimemas equivalent) reconstructs application behaviour.
//
// The model follows the paper's description of Dimemas: a linear
// point-to-point cost T = Latency + Size/Bandwidth, a finite pool of global
// buses bounding how many messages may be in flight concurrently, and a
// number of input/output ports per processor bounding each node's injection
// and drain rate. CPU bursts are converted from instruction counts to
// seconds with an average MIPS rate, exactly as the paper's tracer does.
package network

import (
	"fmt"
	"math"
)

// Config parametrizes the simulated platform.
type Config struct {
	// Processors is the number of simulated CPUs (one MPI rank each).
	Processors int
	// LatencySec is the per-message network latency in seconds.
	LatencySec float64
	// BandwidthMBps is the unidirectional link bandwidth in MB/s
	// (1 MB = 1e6 bytes, matching how vendors quote the Myrinet figure).
	BandwidthMBps float64
	// Buses is the number of global buses: the maximum number of messages
	// that may travel through the network concurrently. Zero means
	// unlimited.
	Buses int
	// InPorts and OutPorts bound, per processor, how many incoming and
	// outgoing transfers may be serializing simultaneously. Zero means
	// unlimited.
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
	// Dimemas model: each transfer's serialization time is stretched by
	//
	//	1 + CongestionFactor * max(0, inflight/buses - 1)
	//
	// where inflight counts the messages in the network when the
	// transfer starts. Zero disables the extension (the validated linear
	// model); it only applies with a finite bus pool.
	CongestionFactor float64
}

// Validate reports the first implausible parameter.
func (c Config) Validate() error {
	switch {
	case c.Processors <= 0:
		return fmt.Errorf("network: Processors=%d, must be positive", c.Processors)
	case c.LatencySec < 0:
		return fmt.Errorf("network: negative latency %g", c.LatencySec)
	case c.BandwidthMBps <= 0 && !math.IsInf(c.BandwidthMBps, 1):
		return fmt.Errorf("network: bandwidth %g MB/s, must be positive or +Inf", c.BandwidthMBps)
	case c.Buses < 0:
		return fmt.Errorf("network: Buses=%d, must be non-negative", c.Buses)
	case c.InPorts < 0 || c.OutPorts < 0:
		return fmt.Errorf("network: ports in=%d out=%d, must be non-negative", c.InPorts, c.OutPorts)
	case c.MIPS <= 0:
		return fmt.Errorf("network: MIPS=%g, must be positive", c.MIPS)
	case c.RelativeSpeed <= 0:
		return fmt.Errorf("network: RelativeSpeed=%g, must be positive", c.RelativeSpeed)
	case c.CongestionFactor < 0:
		return fmt.Errorf("network: CongestionFactor=%g, must be non-negative", c.CongestionFactor)
	}
	return nil
}

// link returns the flat configuration's single link class.
func (c Config) link() Link {
	return Link{LatencySec: c.LatencySec, BandwidthMBps: c.BandwidthMBps}
}

// TransferSec returns the flight time of a message of the given size:
// latency plus serialization.
func (c Config) TransferSec(bytes int64) float64 {
	return c.link().TransferSec(bytes)
}

// SerializationSec returns the time the message occupies a port:
// size divided by bandwidth.
func (c Config) SerializationSec(bytes int64) float64 {
	return c.link().SerializationSec(bytes)
}

// ComputeSec converts an instruction count to seconds on this platform.
func (c Config) ComputeSec(instr int64) float64 {
	k := c.Platform().Costs()
	return k.ComputeSec(instr)
}

// Eager reports whether a message of the given size uses the eager protocol.
func (c Config) Eager(bytes int64) bool {
	k := c.Platform().Costs()
	return k.Eager(bytes)
}

// WithBandwidth returns a copy of the config with the bandwidth replaced.
// It is the primitive used by the Fig. 6b/6c bandwidth searches.
func (c Config) WithBandwidth(mbps float64) Config {
	c.BandwidthMBps = mbps
	return c
}

// WithProcessors returns a copy of the config resized to n processors.
func (c Config) WithProcessors(n int) Config {
	c.Processors = n
	return c
}

// Testbed returns the paper's experimental platform: the MareNostrum-like
// system of Section IV — PowerPC 970 nodes at 2.3 GHz joined by a Myrinet
// network with 250 MB/s unidirectional bandwidth. The MIPS figure models the
// observed average rate of one core (the paper scales instructions by the
// measured rate; 2300 MIPS ≈ one instruction per cycle at 2.3 GHz). The
// 8 microsecond latency is typical for the Myrinet generation deployed in
// MareNostrum. The bus count is application specific (Table I); callers
// overwrite it via TestbedFor or WithBuses.
func Testbed(processors int) Config {
	return Config{
		Processors:          processors,
		LatencySec:          8e-6,
		BandwidthMBps:       250,
		Buses:               0,
		InPorts:             1,
		OutPorts:            1,
		MIPS:                2300,
		EagerThresholdBytes: -1, // Dimemas default: asynchronous sends
		RelativeSpeed:       1,
	}
}

// WithBuses returns a copy of the config with the bus pool resized.
func (c Config) WithBuses(buses int) Config {
	c.Buses = buses
	return c
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

// TestbedFor returns the testbed configuration calibrated for the named
// application (lower-case, as in TableIBuses). Unknown names get the plain
// testbed with unlimited buses.
func TestbedFor(app string, processors int) Config {
	c := Testbed(processors)
	if b, ok := TableIBuses[app]; ok {
		c.Buses = b
	}
	return c
}

// InfiniteBandwidth returns a copy of the config with zero serialization
// cost, used to detect "no bandwidth can match" (Fig. 6c's Sweep3D result).
func (c Config) InfiniteBandwidth() Config {
	c.BandwidthMBps = math.Inf(1)
	return c
}
