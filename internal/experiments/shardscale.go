package experiments

import (
	"fmt"
	"time"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/proto/collective"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
)

// ShardedTrafficConfig parameterises one sharded cluster run: a NOW of
// Nodes workstations on a Myrinet-class switched fabric, cut into Parts
// partitions, executed by Workers goroutines. Every rank first joins
// Barriers cluster-wide barriers (the SC1 workload pushed past 1,024
// ranks), then exchanges Rounds rounds of request/reply AM traffic with
// alternating near (mostly intra-partition) and far (mostly
// cross-partition) destinations.
//
// Parts and Seed are part of the workload's identity; Workers is not —
// every output except wall-clock timing is byte-identical at any worker
// count.
type ShardedTrafficConfig struct {
	Nodes    int
	Parts    int
	Workers  int
	Seed     int64
	Rounds   int
	Barriers int
}

// shardedBlockBytes is the request payload size of ShardedTraffic.
const shardedBlockBytes = 1024

// DefaultShardedTrafficConfig returns the nowsim -shards workload shape.
func DefaultShardedTrafficConfig(nodes, workers int, seed int64) ShardedTrafficConfig {
	parts := 8
	if parts > nodes/2 {
		parts = nodes / 2
	}
	if parts < 1 {
		parts = 1
	}
	return ShardedTrafficConfig{
		Nodes:    nodes,
		Parts:    parts,
		Workers:  workers,
		Seed:     seed,
		Rounds:   4,
		Barriers: 4,
	}
}

// ShardedTrafficResult is one run's outcome. Every field except Wall and
// EventsPerSec is deterministic (a pure function of the config minus
// Workers).
type ShardedTrafficResult struct {
	Nodes, Parts, Workers int
	MakespanUs            float64 // virtual time when the last rank finished
	BarrierUs             float64 // mean cluster-wide barrier latency
	Events                int64   // events scheduled across all partition engines
	CrossSent             int64   // packets handed across partition boundaries
	Overflows             int64   // AM receive-buffer overflows (must stay 0)
	Drops                 int64   // fabric drops (must stay 0 on a healthy fabric)
	Wall                  time.Duration
	EventsPerSec          float64
}

// ShardedTraffic runs one sharded cluster workload and returns the
// result plus the merged observability registry (per-partition
// registries plus the shard driver's, combined with obs.Merged — also
// byte-stable across worker counts).
func ShardedTraffic(cfg ShardedTrafficConfig) (ShardedTrafficResult, *obs.Registry, error) {
	if cfg.Nodes < 2 {
		return ShardedTrafficResult{}, nil, fmt.Errorf("sharded traffic: %d nodes", cfg.Nodes)
	}
	if cfg.Rounds < 0 || cfg.Barriers < 0 {
		return ShardedTrafficResult{}, nil, fmt.Errorf("sharded traffic: negative workload")
	}
	fcfg := netsim.Myrinet(cfg.Nodes)
	se := sim.NewShardedEngine(sim.ShardedConfig{
		Parts:   cfg.Parts,
		Workers: cfg.Workers,
		Seed:    cfg.Seed,
		Window:  fcfg.Latency,
	})
	defer se.Close()
	pm := netsim.SplitEven(cfg.Nodes, cfg.Parts)
	sf, err := netsim.NewSharded(se, fcfg, pm)
	if err != nil {
		return ShardedTrafficResult{}, nil, err
	}

	// One registry per partition (single-writer, like the engine that
	// feeds it) plus one for the shard driver's own tallies.
	regs := make([]*obs.Registry, cfg.Parts+1)
	for p := 0; p < cfg.Parts; p++ {
		regs[p] = obs.NewRegistry()
		se.Engine(p).Observe(regs[p])
		sf.Part(p).Instrument(regs[p])
	}
	regs[cfg.Parts] = obs.NewRegistry()
	se.Observe(regs[cfg.Parts])

	acfg := am.DefaultConfig()
	eps := make([]*am.Endpoint, cfg.Nodes)
	nodeOf := make([]netsim.NodeID, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		nodeOf[i] = netsim.NodeID(i)
		p := pm.Part(netsim.NodeID(i))
		e := se.Engine(p)
		eps[i] = am.NewEndpoint(e, node.New(e, node.DefaultConfig(netsim.NodeID(i))), sf.Part(p), acfg)
		eps[i].Register(0x10, func(p *sim.Proc, m am.Msg) (any, int) {
			return m.Arg, 16
		})
	}
	// One communicator fragment per partition, sharing the rank→node map.
	comms := make([]*collective.Comm, cfg.Parts)
	if cfg.Barriers > 0 {
		for p := 0; p < cfg.Parts; p++ {
			part := make([]*am.Endpoint, cfg.Nodes)
			for i, ep := range eps {
				if pm.Local(netsim.NodeID(i), p) {
					part[i] = ep
				}
			}
			comms[p], err = collective.NewPart(se.Engine(p), part, nodeOf, collective.DefaultConfig())
			if err != nil {
				return ShardedTrafficResult{}, nil, err
			}
		}
		comms[0].Instrument(regs[pm.Part(0)])
	}

	doneAt := make([]sim.Time, cfg.Nodes)    // written by rank i only
	barrierAt := make([]sim.Time, cfg.Nodes) // written by rank i only
	failures := make([]error, cfg.Nodes)     // written by rank i only
	for i := 0; i < cfg.Nodes; i++ {
		i := i
		p := pm.Part(netsim.NodeID(i))
		e := se.Engine(p)
		comm := comms[p]
		e.Spawn(fmt.Sprintf("rank-%d", i), func(pr *sim.Proc) {
			for b := 0; b < cfg.Barriers; b++ {
				if err := comm.Barrier(pr, i); err != nil {
					failures[i] = fmt.Errorf("rank %d barrier %d: %w", i, b, err)
					return
				}
			}
			barrierAt[i] = pr.Now()
			for r := 0; r < cfg.Rounds; r++ {
				var dst int
				if r%2 == 0 {
					dst = (i + 1) % cfg.Nodes
				} else {
					dst = (i + cfg.Nodes/2 + r) % cfg.Nodes
				}
				if dst == i {
					dst = (i + 1) % cfg.Nodes
				}
				pr.Sleep(sim.Duration(e.Rand().Intn(5)) * sim.Microsecond)
				if _, err := eps[i].Call(pr, netsim.NodeID(dst), 0x10, r, shardedBlockBytes); err != nil {
					failures[i] = fmt.Errorf("rank %d round %d: %w", i, r, err)
					return
				}
			}
			doneAt[i] = pr.Now()
		})
	}

	start := time.Now()
	if err := se.Run(sim.MaxTime); err != nil {
		return ShardedTrafficResult{}, nil, err
	}
	wall := time.Since(start)
	for _, err := range failures {
		if err != nil {
			return ShardedTrafficResult{}, nil, err
		}
	}

	res := ShardedTrafficResult{
		Nodes: cfg.Nodes, Parts: cfg.Parts, Workers: se.Workers(), Wall: wall,
	}
	var makespan, barrierEnd sim.Time
	for i := 0; i < cfg.Nodes; i++ {
		if doneAt[i] > makespan {
			makespan = doneAt[i]
		}
		if barrierAt[i] > barrierEnd {
			barrierEnd = barrierAt[i]
		}
		res.Overflows += eps[i].Stats().Overflows
	}
	res.MakespanUs = makespan.Microseconds()
	if cfg.Barriers > 0 {
		res.BarrierUs = barrierEnd.Microseconds() / float64(cfg.Barriers)
	}
	st := se.Stats()
	for _, pp := range st.PerPart {
		res.Events += int64(pp.Events)
	}
	fs := sf.Stats()
	res.CrossSent = fs.CrossSent
	res.Drops = fs.Drops
	if wall > 0 {
		res.EventsPerSec = float64(res.Events) / wall.Seconds()
	}
	return res, obs.Merged(regs...), nil
}

// ShardScaleConfig parameterises the SC2 shard-scaling study.
type ShardScaleConfig struct {
	// Sizes are the cluster sizes to sweep.
	Sizes []int
	// Workers are the worker counts to sweep at each size.
	Workers []int
	// Rounds and Barriers shape the per-rank workload (see
	// ShardedTrafficConfig).
	Rounds, Barriers int
}

// shardScaleSeed feeds every SC2 run (the schedule must not depend on
// the worker count).
const shardScaleSeed = 1

// ShardScaleRow is one (size, workers) cell of the SC2 study.
type ShardScaleRow struct {
	ShardedTrafficResult
	Speedup float64 // events/sec relative to workers=1 at the same size
}

// ShardScale is experiment SC2: simulation throughput (real events/sec)
// as the sharded engine sweeps cluster size × worker count. The
// deterministic columns (makespan, events, cross-partition packets,
// barrier latency, overflows) must be IDENTICAL down each size's block
// — that is the determinism claim made visible — while events/sec and
// speedup report how much the multicore event loop actually buys, which
// depends on the machine running the study. Barrier latency at the
// largest size is the SC1 workload at 4× its old 1,024-rank ceiling.
func ShardScale(cfg ShardScaleConfig) (Report, []ShardScaleRow, error) {
	rows := make([]ShardScaleRow, 0, len(cfg.Sizes)*len(cfg.Workers))
	regs := make(map[string]*obs.Registry)
	maxWorkers := 0
	table := stats.NewTable("SC2: sharded engine throughput (shards × nodes)",
		"nodes", "parts", "workers", "barrier µs", "makespan µs", "events", "cross pkts", "overflows", "events/s", "speedup")
	for _, n := range cfg.Sizes {
		var base float64
		for _, w := range cfg.Workers {
			tc := DefaultShardedTrafficConfig(n, w, shardScaleSeed)
			tc.Rounds, tc.Barriers = cfg.Rounds, cfg.Barriers
			res, reg, err := ShardedTraffic(tc)
			if err != nil {
				return Report{}, nil, fmt.Errorf("sc2 n=%d w=%d: %w", n, w, err)
			}
			row := ShardScaleRow{ShardedTrafficResult: res}
			if base == 0 {
				base = res.EventsPerSec
			}
			if base > 0 {
				row.Speedup = res.EventsPerSec / base
			}
			rows = append(rows, row)
			if res.Workers > maxWorkers {
				maxWorkers = res.Workers
			}
			regs[fmt.Sprintf("n%05dw%d", n, w)] = reg
			table.AddRow(
				fmt.Sprintf("%d", res.Nodes),
				fmt.Sprintf("%d", res.Parts),
				fmt.Sprintf("%d", res.Workers),
				fmt.Sprintf("%.1f", res.BarrierUs),
				fmt.Sprintf("%.1f", res.MakespanUs),
				fmt.Sprintf("%d", res.Events),
				fmt.Sprintf("%d", res.CrossSent),
				fmt.Sprintf("%d", res.Overflows),
				fmt.Sprintf("%.0f", res.EventsPerSec),
				fmt.Sprintf("%.2f", row.Speedup),
			)
		}
	}
	return Report{
		ID:    "SC2",
		Title: "Sharded event loop: deterministic parallel simulation to 4,096 ranks",
		Table: table,
		Notes: "deterministic columns (barrier, makespan, events, cross pkts, overflows) are identical down each size block by construction; " +
			"events/s and speedup are wall-clock and machine-dependent (bounded by available cores)",
		Obs:    regs,
		Shards: maxWorkers,
	}, rows, nil
}
