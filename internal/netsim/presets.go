package netsim

import "github.com/nowproject/now/internal/sim"

// Presets for the network technologies the paper evaluates. The numbers
// are the paper's own coefficients wherever it states them; see
// EXPERIMENTS.md for the calibration notes.

// Ethernet10 is the 1994 departmental LAN: a single shared 10 Mb/s
// segment. Latency is propagation only — negligible next to the
// millisecond-scale serialization of data blocks.
func Ethernet10(nodes int) Config {
	return Config{
		Name:          "ethernet",
		Nodes:         nodes,
		BandwidthMbps: 10,
		Latency:       50 * sim.Microsecond,
		Shared:        true,
	}
}

// ATM155 is a switched 155 Mb/s ATM LAN. The paper: "network latency
// component varies for different switches from about 10 to 100 µs"; we
// take the midpoint of a well-configured switch.
func ATM155(nodes int) Config {
	return Config{
		Name:          "atm",
		Nodes:         nodes,
		BandwidthMbps: 155,
		Latency:       20 * sim.Microsecond,
		// One 53-byte cell carries 48 payload bytes; fold the 5-byte
		// header tax into a small fixed per-packet cost plus the ~10%
		// rate derating already implied by BandwidthMbps being the line
		// rate. A single serialization delay of one ATM cell ≈ 2.7 µs.
		PerPacketWire: 3 * sim.Microsecond,
	}
}

// FDDI100 is the 100 Mb/s FDDI ring of the HP Medusa prototype. The ring
// is a shared medium; token rotation shows up as latency.
func FDDI100(nodes int) Config {
	return Config{
		Name:          "fddi",
		Nodes:         nodes,
		BandwidthMbps: 100,
		Latency:       8 * sim.Microsecond, // paper: "network and adapter latency adds 8 µs"
		Shared:        true,
	}
}

// Myrinet is the retargeted-MPP-network candidate for the final NOW
// demonstration system: switched, 640 Mb/s class, sub-microsecond
// per-hop routing; we charge a conservative single-switch traversal.
func Myrinet(nodes int) Config {
	return Config{
		Name:          "myrinet",
		Nodes:         nodes,
		BandwidthMbps: 640,
		Latency:       5 * sim.Microsecond,
	}
}
