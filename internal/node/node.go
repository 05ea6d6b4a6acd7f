// Package node models a 1994-class workstation: a CPU with a
// round-robin timeslice scheduler, DRAM organised as LRU page frames,
// and a single disk with seek/rotate/transfer costs. A NOW is a
// collection of these plus a netsim fabric; everything above (protocol
// stacks, GLUnix, xFS) charges its time to these resources.
package node

import (
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/sim"
)

// Config describes one workstation.
type Config struct {
	// ID is the node's address on the fabric.
	ID netsim.NodeID
	// MFLOPS is sustained floating-point rate, used to convert work in
	// flop into CPU time (the paper's machine comparisons are stated in
	// Mflops per node).
	MFLOPS float64
	// Quantum is the local scheduler's round-robin timeslice.
	Quantum sim.Duration
	// ContextSwitch is charged at every involuntary slice rotation.
	ContextSwitch sim.Duration
	// MemoryBytes is DRAM size; PageSize divides it into frames.
	MemoryBytes int64
	PageSize    int
	// Disk parameters.
	Disk DiskConfig
}

// DiskConfig describes the node's disk.
type DiskConfig struct {
	// AvgAccess is seek plus rotational delay for a random access.
	AvgAccess sim.Duration
	// BandwidthMBps is the media transfer rate in megabytes per second.
	BandwidthMBps float64
}

// DefaultConfig returns a mid-1994 desktop workstation: 50 MFLOPS-class
// CPU, 100 ms Unix timeslice, 64 MB DRAM, 4 KB pages, and a disk with
// ~12 ms random access and 2 MB/s media rate (the paper's per-node disk
// figure). With these constants an 8 KB random read costs ≈14.8 ms —
// Table 2's disk term — because the file system pays seek plus rotation
// on the index and data halves of a cold miss.
func DefaultConfig(id netsim.NodeID) Config {
	return Config{
		ID:            id,
		MFLOPS:        50,
		Quantum:       100 * sim.Millisecond,
		ContextSwitch: 100 * sim.Microsecond,
		MemoryBytes:   64 << 20,
		PageSize:      4096,
		Disk: DiskConfig{
			AvgAccess:     12 * sim.Millisecond,
			BandwidthMBps: 2.9,
		},
	}
}

// Node is a simulated workstation.
type Node struct {
	cfg  Config
	eng  *sim.Engine
	CPU  *CPU
	Disk *Disk
	Mem  *Memory
}

// New builds a node on the engine. Invalid configs are normalised
// (non-positive rates get defaults) rather than rejected: a node is an
// internal building block and callers construct configs from presets.
func New(e *sim.Engine, cfg Config) *Node {
	if cfg.MFLOPS <= 0 {
		cfg.MFLOPS = 50
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 100 * sim.Millisecond
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if cfg.MemoryBytes <= 0 {
		cfg.MemoryBytes = 64 << 20
	}
	if cfg.Disk.AvgAccess <= 0 {
		cfg.Disk.AvgAccess = 12 * sim.Millisecond
	}
	if cfg.Disk.BandwidthMBps <= 0 {
		cfg.Disk.BandwidthMBps = 2.9
	}
	n := &Node{cfg: cfg, eng: e}
	n.CPU = newCPU(e, fmt.Sprintf("node%d/cpu", cfg.ID), cfg)
	n.Disk = newDisk(e, fmt.Sprintf("node%d/disk", cfg.ID), cfg.Disk)
	n.Mem = NewMemory(cfg.MemoryBytes, cfg.PageSize)
	return n
}

// ID returns the node's fabric address.
func (n *Node) ID() netsim.NodeID { return n.cfg.ID }

// FlopTime converts floating-point work into CPU time at this node's
// sustained rate.
func (n *Node) FlopTime(flop float64) sim.Duration {
	return sim.Time(flop / (n.cfg.MFLOPS * 1e6) * float64(sim.Second))
}
