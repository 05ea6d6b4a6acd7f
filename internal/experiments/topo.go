package experiments

import (
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/proto/collective"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
)

// TopoStudyConfig parameterises the SC3 topology study.
type TopoStudyConfig struct {
	// Sizes are the cluster sizes to sweep.
	Sizes []int
	// Iters is how many back-to-back operations each phase runs; the
	// reported latency is the phase makespan divided by this count.
	Iters int
}

const (
	// fatTreeArity is k for SC3's fat-tree fabric (hosts per leaf
	// switch), built at fatTreeOversub:1 over-subscription.
	fatTreeArity   = 8
	fatTreeOversub = 1
	// topoBcastBytes is SC3's broadcast payload size.
	topoBcastBytes = 512
)

// topologies are the fabrics SC3 compares, by netsim name.
var topologies = []string{"crossbar", "fattree", "torus"}

// TopoRow is one (topology, cluster size) cell of the SC3 study.
type TopoRow struct {
	Nodes int
	Topo  string

	BarrierTreeUs    float64 // software k-ary tree over AM
	BarrierPredUs    float64 // LogP-style software-tree prediction
	BarrierInNetUs   float64 // switch-combined
	BarrierInNetPred float64 // in-network prediction (physical depth)
	BcastTreeUs      float64
	BcastInNetUs     float64
	ReduceTreeUs     float64
	ReduceInNetUs    float64
}

// TopologyStudy is experiment SC3: barrier, broadcast and reduce
// latency from 32 to 1,024 ranks across the flat crossbar, an 8-ary
// fat-tree and a 2D torus, running the software tree and the
// in-network combining plane over the SAME fabric in the same seeded
// run. The paper's scaling argument (SC1) assumed one ideal switch;
// SC3 asks what structured interconnects cost — extra switch hops,
// contended up-links — and what switch-resident combining buys back:
// at 1,024 ranks the in-network barrier must beat the software tree,
// because it pays host overhead once instead of per tree level.
func TopologyStudy(cfg TopoStudyConfig) (Report, []TopoRow, error) {
	acfg := am.DefaultConfig()
	rows := make([]TopoRow, 0, len(topologies)*len(cfg.Sizes))
	regs := make(map[string]*obs.Registry)
	for _, topoName := range topologies {
		for _, n := range cfg.Sizes {
			row, reg, err := topoOne(topoName, n, cfg, acfg)
			if err != nil {
				return Report{}, nil, fmt.Errorf("sc3 %s n=%d: %w", topoName, n, err)
			}
			rows = append(rows, row)
			regs[fmt.Sprintf("%s-n%04d", topoName, n)] = reg
		}
	}
	table := stats.NewTable("SC3: collectives across fabric topologies, software tree vs in-network combining",
		"nodes", "topology", "barrier µs", "LogP µs", "in-net µs", "in-net pred µs", "bcast µs", "in-net µs", "reduce µs", "in-net µs")
	for _, r := range rows {
		table.AddRow(
			fmt.Sprintf("%d", r.Nodes),
			r.Topo,
			fmt.Sprintf("%.1f", r.BarrierTreeUs),
			fmt.Sprintf("%.1f", r.BarrierPredUs),
			fmt.Sprintf("%.1f", r.BarrierInNetUs),
			fmt.Sprintf("%.1f", r.BarrierInNetPred),
			fmt.Sprintf("%.1f", r.BcastTreeUs),
			fmt.Sprintf("%.1f", r.BcastInNetUs),
			fmt.Sprintf("%.1f", r.ReduceTreeUs),
			fmt.Sprintf("%.1f", r.ReduceInNetUs),
		)
	}
	return Report{
		ID:    "SC3",
		Title: "Topology-aware collectives 32→1,024 ranks: crossbar vs fat-tree vs torus, software tree vs in-network",
		Table: table,
		Notes: fmt.Sprintf("%d-ary software trees; %d-ary fat-tree at %d:1 over-subscription; %d-byte broadcasts; each figure is a %d-op phase makespan divided by %d",
			treeArity, fatTreeArity, fatTreeOversub, topoBcastBytes, cfg.Iters, cfg.Iters),
		Obs: regs,
	}, rows, nil
}

// topoOne runs one (topology, size) cell: six back-to-back phases —
// tree barrier, in-network barrier, tree broadcast, in-network
// broadcast, tree reduce, in-network reduce — on one fabric in one
// seeded engine. Phase boundaries are the last rank's completion, so
// each phase's makespan charges the stragglers the previous phase
// created (barrier-shaped phases re-align the ranks anyway).
func topoOne(topoName string, n int, cfg TopoStudyConfig, acfg am.Config) (TopoRow, *obs.Registry, error) {
	var topo netsim.Topology
	var err error
	switch topoName {
	case "fattree":
		topo, err = netsim.NewFatTree(n, fatTreeArity, fatTreeOversub)
	case "torus":
		topo, err = netsim.NewTorus(n)
	}
	if err != nil {
		return TopoRow{}, nil, err
	}
	rig, err := newCollectiveRig(n, topo, acfg)
	if err != nil {
		return TopoRow{}, nil, err
	}
	defer rig.e.Close()
	comm := rig.comm
	innet, err := collective.NewInNet(comm, collective.InNetConfig{})
	if err != nil {
		return TopoRow{}, nil, err
	}
	innet.Instrument(rig.reg)

	const phases = 6
	var phaseEnd [phases]sim.Time
	err = rig.runRanks("sc3", func(p *sim.Proc, r int) error {
		mark := func(ph int) {
			if p.Now() > phaseEnd[ph] {
				phaseEnd[ph] = p.Now()
			}
		}
		for i := 0; i < cfg.Iters; i++ {
			if err := comm.Barrier(p, r); err != nil {
				return err
			}
		}
		mark(0)
		for i := 0; i < cfg.Iters; i++ {
			if err := innet.Barrier(p, r); err != nil {
				return err
			}
		}
		mark(1)
		for i := 0; i < cfg.Iters; i++ {
			if _, err := comm.Broadcast(p, r, i, topoBcastBytes); err != nil {
				return err
			}
		}
		mark(2)
		for i := 0; i < cfg.Iters; i++ {
			if _, err := innet.Broadcast(p, r, i, topoBcastBytes); err != nil {
				return err
			}
		}
		mark(3)
		for i := 0; i < cfg.Iters; i++ {
			if _, _, err := comm.Reduce(p, r, int64(r)); err != nil {
				return err
			}
		}
		mark(4)
		for i := 0; i < cfg.Iters; i++ {
			if _, err := innet.AllReduce(p, r, int64(r)); err != nil {
				return err
			}
		}
		mark(5)
		return nil
	}, nil)
	if err != nil {
		return TopoRow{}, nil, err
	}
	per := func(ph int) float64 {
		start := sim.Time(0)
		if ph > 0 {
			start = phaseEnd[ph-1]
		}
		return float64(phaseEnd[ph]-start) / float64(cfg.Iters) / 1e3
	}
	fcfg := rig.fcfg
	depth := netsim.CombineTreeOf(fcfg.Topo, n).Depth()
	row := TopoRow{
		Nodes: n,
		Topo:  topoLabel(fcfg.Topo),

		BarrierTreeUs:    per(0),
		BarrierPredUs:    float64(collective.PredictBarrier(acfg, fcfg, n, treeArity)) / 1e3,
		BarrierInNetUs:   per(1),
		BarrierInNetPred: float64(collective.PredictInNetBarrier(acfg, fcfg, depth, 0)) / 1e3,
		BcastTreeUs:      per(2),
		BcastInNetUs:     per(3),
		ReduceTreeUs:     per(4),
		ReduceInNetUs:    per(5),
	}
	return row, rig.reg, nil
}

// topoLabel names a cell's topology: the instance's own Name (which
// carries its parameters) for structured fabrics, "crossbar" for the
// flat default.
func topoLabel(topo netsim.Topology) string {
	if topo == nil {
		return "crossbar"
	}
	return topo.Name()
}
