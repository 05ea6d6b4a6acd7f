// Package gator reproduces Table 4: the Demmel–Smith execution-time
// model of the NASA Ames/UCLA "Gator" atmospheric chemical tracer
// applied to a Cray C-90, an Intel Paragon, and a series of
// progressively upgraded 256-node RS/6000 NOWs. The model's structure —
// a perfectly parallel ODE phase, a communication-bound transport phase,
// and a file-input phase — comes from the paper; the machine parameters
// are the paper's own (300 vs 12 vs 40 Mflops per node, 10 vs 2 MB/s
// disks, PVM vs low-overhead messaging).
//
// The paper validated the original model to within 30% of measured wall
// clock on real machines; we aim the same tolerance at the paper's own
// Table 4 rows.
package gator

import (
	"fmt"

	"github.com/nowproject/now/internal/proto/kstack"
	"github.com/nowproject/now/internal/sim"
)

// Workload is the problem instance: the paper's production run.
type Workload struct {
	// FLOP is total floating-point work in the ODE phase.
	FLOP float64
	// InputBytes read at startup; OutputBytes written at the end.
	InputBytes  float64
	OutputBytes float64
	// TransportVolume is total bytes exchanged by the transport phase.
	TransportVolume float64
	// MsgsPerNode is the number of (small) messages each node sends
	// during transport — boundary exchanges over many timesteps.
	MsgsPerNode float64
}

// PaperWorkload returns the Table 4 instance: 36 Gflop, 3.9 GB in,
// 51 MB out. Communication volume and message counts are calibrated so
// the published RS/6000 rows are reproduced (see EXPERIMENTS.md).
func PaperWorkload() Workload {
	return Workload{
		FLOP:            36e9,
		InputBytes:      3.9e9,
		OutputBytes:     51e6,
		TransportVolume: 26e9,
		MsgsPerNode:     310e3,
	}
}

// Machine parameterises one Table 4 row.
type Machine struct {
	Name  string
	Nodes int
	// MFLOPS is sustained per-node floating-point rate.
	MFLOPS float64
	// DiskMBps is per-node (or per-CPU) disk bandwidth.
	DiskMBps float64
	// ParallelFS: input is striped across all disks at this efficiency
	// (0 disables: a sequential file system uses one disk).
	ParallelFSEff float64
	// SharedMemory: transport runs through the memory system at
	// MemBWGBps instead of a network.
	SharedMemory bool
	MemBWGBps    float64
	// MsgOverhead is send+receive processor overhead per message.
	MsgOverhead sim.Duration
	// LinkMBps is per-node network bandwidth (switched fabrics).
	LinkMBps float64
	// SharedMediumMBps caps *total* communication (10 Mb/s Ethernet);
	// zero means the fabric is switched.
	SharedMediumMBps float64
	// DistributeInput: input read by one node must also be scattered
	// over the network (NOW without an integrated parallel FS).
	DistributeInput bool
	// CostM$ is the system price in millions (paper's last column).
	CostM float64
}

// PhaseTimes is one Table 4 row's output.
type PhaseTimes struct {
	Machine   string
	ODE       sim.Duration
	Transport sim.Duration
	Input     sim.Duration
	Total     sim.Duration
	CostM     float64
}

// Machines returns the paper's six configurations in Table 4 order.
func Machines() []Machine {
	c90 := Machine{
		Name: "C-90 (16)", Nodes: 16, MFLOPS: 300, DiskMBps: 15,
		ParallelFSEff: 1.0, SharedMemory: true, MemBWGBps: 6.5, CostM: 30,
	}
	paragon := Machine{
		Name: "Paragon (256)", Nodes: 256, MFLOPS: 12, DiskMBps: 2,
		ParallelFSEff: 0.76, MsgOverhead: 70 * sim.Microsecond,
		LinkMBps: 175, CostM: 10,
	}
	pvm := kstack.PVMEthernet() // PVM through sockets
	nowBase := Machine{
		Name: "RS-6000 (256)", Nodes: 256, MFLOPS: 40, DiskMBps: 2,
		MsgOverhead: pvm.SendOverhead + pvm.RecvOverhead,
		// Bulk streaming gets closer to the 10 Mb/s wire than PVM's
		// small transport messages do.
		LinkMBps: 1.9, SharedMediumMBps: 1.125, DistributeInput: true,
		CostM: 4,
	}
	nowATM := nowBase
	nowATM.Name = "RS-6000 + ATM"
	nowATM.SharedMediumMBps = 0
	nowATM.LinkMBps = 17
	nowATM.CostM = 5
	nowPFS := nowATM
	nowPFS.Name = "RS-6000 + parallel file system"
	nowPFS.ParallelFSEff = 0.8
	nowPFS.DistributeInput = false
	nowAM := nowPFS
	nowAM.Name = "RS-6000 + low-overhead msgs"
	nowAM.MsgOverhead = 6 * sim.Microsecond // Active Messages both sides
	return []Machine{c90, paragon, nowBase, nowATM, nowPFS, nowAM}
}

// Model evaluates the analytic execution-time model for one machine.
func Model(m Machine, w Workload) PhaseTimes {
	secs := func(s float64) sim.Duration { return sim.Duration(s * float64(sim.Second)) }

	// ODE: perfectly parallel floating-point work.
	ode := secs(w.FLOP / (float64(m.Nodes) * m.MFLOPS * 1e6))

	// Transport: overhead + bandwidth terms, or the memory system.
	var transport sim.Duration
	if m.SharedMemory {
		transport = secs(w.TransportVolume / (m.MemBWGBps * 1e9))
	} else {
		overhead := sim.Duration(w.MsgsPerNode) * m.MsgOverhead
		perNode := w.TransportVolume / float64(m.Nodes)
		wire := perNode / (m.LinkMBps * 1e6)
		if m.SharedMediumMBps > 0 {
			// A shared medium serialises everyone's traffic.
			shared := w.TransportVolume / (m.SharedMediumMBps * 1e6)
			if secs(shared) > secs(wire) {
				wire = shared
			}
		}
		transport = overhead + secs(wire)
	}

	// Input: disk then (for a NOW without a parallel FS) scatter.
	diskBW := m.DiskMBps * 1e6
	if m.ParallelFSEff > 0 {
		diskBW *= float64(m.Nodes) * m.ParallelFSEff
	}
	input := secs((w.InputBytes + w.OutputBytes) / diskBW)
	if m.DistributeInput {
		distribute := secs(w.InputBytes / (m.LinkMBps * 1e6))
		if m.SharedMediumMBps > 0 {
			// Shared medium: the reading node's disk DMA and the scatter
			// share one path — the phases serialise.
			input += distribute
		} else if distribute > input {
			// Switched fabric: scatter overlaps the disk read.
			input = distribute
		}
	}

	return PhaseTimes{
		Machine:   m.Name,
		ODE:       ode,
		Transport: transport,
		Input:     input,
		Total:     ode + transport + input,
		CostM:     m.CostM,
	}
}

// Table4 evaluates all six machines on the paper workload.
func Table4() []PhaseTimes {
	w := PaperWorkload()
	ms := Machines()
	out := make([]PhaseTimes, len(ms))
	for i, m := range ms {
		out[i] = Model(m, w)
	}
	return out
}

// String renders a row.
func (pt PhaseTimes) String() string {
	return fmt.Sprintf("%-32s ODE=%v Transport=%v Input=%v Total=%v $%.0fM",
		pt.Machine, pt.ODE, pt.Transport, pt.Input, pt.Total, pt.CostM)
}
