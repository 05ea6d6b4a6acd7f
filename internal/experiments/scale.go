package experiments

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/proto/collective"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
)

// ScaleConfig parameterises the SC1 collective scale study.
type ScaleConfig struct {
	// Sizes are the cluster sizes to sweep.
	Sizes []int
	// Barriers is how many back-to-back barriers each size runs; the
	// reported latency is the makespan divided by this count.
	Barriers int
}

const (
	// treeArity is the software collective tree fan-out of SC1 and SC3.
	treeArity = 4
	// scaleBlockBytes is SC1's all-to-all per-pair block size.
	scaleBlockBytes = 1024
	// scaleA2AMaxNodes caps SC1's all-to-all sweep: the exchange is
	// quadratic in messages (1,024 nodes would be ~1M), and the scaling
	// shape is established well before that.
	scaleA2AMaxNodes = 128
)

// ScaleRow is one cluster size of the SC1 study.
type ScaleRow struct {
	Nodes          int
	BarrierUs      float64 // measured barrier latency
	BarrierPredUs  float64 // LogP-style prediction
	AllToAllUs     float64 // measured exchange latency (0 above the cap)
	AllToAllPredUs float64
	MaxLinkUtil    float64 // peak per-link tx utilization over the run
	MeanLinkUtil   float64
	Overflows      int64 // AM receive-buffer overflows (must stay 0)
}

// ScaleCollectives is experiment SC1: barrier and all-to-all latency
// as the cluster grows from 32 to 1,024 nodes on a Myrinet-class
// switched fabric, next to closed-form LogP-style predictions. The
// paper argues a NOW scales past an MPP's building block; the
// interesting output is the *shape* — barrier tracking tree depth
// (log_k n) and all-to-all tracking n — and per-link utilization
// staying bounded, which is what a switched fabric buys over a shared
// medium.
func ScaleCollectives(cfg ScaleConfig) (Report, []ScaleRow, error) {
	acfg := am.DefaultConfig()
	rows := make([]ScaleRow, 0, len(cfg.Sizes))
	regs := make(map[string]*obs.Registry, len(cfg.Sizes))
	for _, n := range cfg.Sizes {
		row, reg, err := scaleOne(n, cfg, acfg)
		if err != nil {
			return Report{}, nil, fmt.Errorf("sc1 n=%d: %w", n, err)
		}
		rows = append(rows, row)
		regs[fmt.Sprintf("n%04d", n)] = reg
	}
	table := stats.NewTable("SC1: collectives at scale (Myrinet-class fabric)",
		"nodes", "barrier µs", "LogP µs", "ratio", "all-to-all µs", "LogP µs", "max link util %", "overflows")
	for _, r := range rows {
		a2a, a2aPred := "-", "-"
		if r.AllToAllUs > 0 {
			a2a = fmt.Sprintf("%.1f", r.AllToAllUs)
			a2aPred = fmt.Sprintf("%.1f", r.AllToAllPredUs)
		}
		table.AddRow(
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%.1f", r.BarrierUs),
			fmt.Sprintf("%.1f", r.BarrierPredUs),
			fmt.Sprintf("%.2f", stats.Ratio(r.BarrierUs, r.BarrierPredUs)),
			a2a, a2aPred,
			fmt.Sprintf("%.2f", r.MaxLinkUtil*100),
			fmt.Sprintf("%d", r.Overflows),
		)
	}
	return Report{
		ID:    "SC1",
		Title: "Collective operations 32→1,024 nodes vs LogP-style prediction",
		Table: table,
		Notes: fmt.Sprintf("%d-ary trees, %d-byte all-to-all blocks (capped at %d nodes), barrier latency averaged over %d back-to-back barriers",
			treeArity, scaleBlockBytes, scaleA2AMaxNodes, cfg.Barriers),
		Obs: regs,
	}, rows, nil
}

// scaleOne runs one cluster size and returns its row and registry.
func scaleOne(n int, cfg ScaleConfig, acfg am.Config) (ScaleRow, *obs.Registry, error) {
	rig, err := newCollectiveRig(n, nil, acfg)
	if err != nil {
		return ScaleRow{}, nil, err
	}
	defer rig.e.Close()
	doA2A := n <= scaleA2AMaxNodes
	var barrierEnd, a2aStart, a2aEnd sim.Time
	a2aStart = sim.MaxTime
	row := ScaleRow{Nodes: n}
	err = rig.runRanks("sc1", func(p *sim.Proc, r int) error {
		for i := 0; i < cfg.Barriers; i++ {
			if err := rig.comm.Barrier(p, r); err != nil {
				return err
			}
		}
		if p.Now() > barrierEnd {
			barrierEnd = p.Now()
		}
		if !doA2A {
			return nil
		}
		if p.Now() < a2aStart {
			a2aStart = p.Now()
		}
		if err := rig.comm.AllToAll(p, r, scaleBlockBytes); err != nil {
			return err
		}
		if p.Now() > a2aEnd {
			a2aEnd = p.Now()
		}
		return nil
	}, func() {
		// Utilization is read the moment the workload finishes, before
		// the run stops.
		var sum, max float64
		for i := 0; i < n; i++ {
			u := rig.fab.TxLinkUtilization(netsim.NodeID(i))
			sum += u
			if u > max {
				max = u
			}
		}
		row.MaxLinkUtil = max
		row.MeanLinkUtil = sum / float64(n)
		for _, ep := range rig.eps {
			row.Overflows += ep.Stats().Overflows
		}
	})
	if err != nil {
		return ScaleRow{}, nil, err
	}
	row.BarrierUs = float64(barrierEnd) / float64(cfg.Barriers) / 1e3
	row.BarrierPredUs = float64(collective.PredictBarrier(acfg, rig.fcfg, n, treeArity)) / 1e3
	if doA2A {
		row.AllToAllUs = float64(a2aEnd-a2aStart) / 1e3
		row.AllToAllPredUs = float64(collective.PredictAllToAll(acfg, rig.fcfg, n, scaleBlockBytes)) / 1e3
	}
	return row, rig.reg, nil
}

// collectiveRig is the SC1 and SC3 test bed: one engine observed by one
// registry, a Myrinet-class fabric, n AM endpoints and a communicator
// over them.
type collectiveRig struct {
	e    *sim.Engine
	reg  *obs.Registry
	fcfg netsim.Config
	fab  *netsim.Fabric
	eps  []*am.Endpoint
	comm *collective.Comm
}

// newCollectiveRig builds an n-node rig; topo nil is the flat crossbar.
func newCollectiveRig(n int, topo netsim.Topology, acfg am.Config) (*collectiveRig, error) {
	rig := &collectiveRig{e: sim.NewEngine(1), reg: obs.NewRegistry(), fcfg: netsim.Myrinet(n)}
	rig.e.Observe(rig.reg)
	rig.fcfg.Topo = topo
	fab, err := netsim.New(rig.e, rig.fcfg)
	if err != nil {
		rig.e.Close()
		return nil, err
	}
	fab.Instrument(rig.reg)
	rig.fab = fab
	rig.eps = make([]*am.Endpoint, n)
	for i := range rig.eps {
		rig.eps[i] = am.NewEndpoint(rig.e, node.New(rig.e, node.DefaultConfig(netsim.NodeID(i))), fab, acfg)
	}
	if rig.comm, err = collective.New(rig.e, rig.eps, collective.Config{Arity: treeArity}); err != nil {
		rig.e.Close()
		return nil, err
	}
	rig.comm.Instrument(rig.reg)
	return rig, nil
}

// runRanks runs body once per rank, each on its own proc, and stops the
// run the moment the last rank returns, after calling done (if non-nil)
// at that instant. Stopping there rather than letting the engine drain
// the cancelled protocol timers keeps the clock from advancing past the
// work and diluting every time-averaged figure. A rank's error fails
// the run.
func (rig *collectiveRig) runRanks(name string, body func(p *sim.Proc, rank int) error, done func()) error {
	n := len(rig.eps)
	wg := sim.NewWaitGroup(rig.e, name)
	wg.Add(n)
	for r := 0; r < n; r++ {
		r := r
		rig.e.Spawn("rank", func(p *sim.Proc) {
			defer wg.Done()
			if err := body(p, r); err != nil {
				rig.e.Fail(err)
			}
		})
	}
	rig.e.Spawn("monitor", func(p *sim.Proc) {
		wg.Wait(p)
		if done != nil {
			done()
		}
		rig.e.Stop()
	})
	if err := rig.e.Run(); err != nil && !errors.Is(err, sim.ErrStopped) {
		return err
	}
	return nil
}
