// WA1 — the federation's headline study: where does cross-cluster
// caching beat re-fetching from home as WAN latency sweeps 1–100 ms?
//
// Two buildings: the HOME cluster runs xFS and owns every file; the
// READER cluster has no storage at all. The reader touches a working
// set of blocks repeatedly, two ways over the same seeded federation:
//
//   - no-cache: every read is a single-block WAN fetch from home —
//     each pays the round trip, so total cost scales with latency × reads.
//   - cached: the first read takes a whole-file lease warmup (the grant
//     ships FileBlocks blocks — bandwidth-bound, latency-independent),
//     then every read is a local copy.
//
// The warmup ships more blocks than the workload uses, so at low
// latency re-fetching wins and at high latency caching wins; the
// crossover is pinned against costmodel.FedCrossoverLatencyNs.
package experiments

import (
	"fmt"

	"github.com/nowproject/now/internal/costmodel"
	"github.com/nowproject/now/internal/federation"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
	"github.com/nowproject/now/internal/xfs"
)

// WideAreaConfig parameterises the WA1 study.
type WideAreaConfig struct {
	// Latencies to sweep (one-way WAN propagation).
	Latencies []sim.Duration
	// Files in the working set; waFileBlocks blocks are written (and
	// warmed) per file.
	Files int
}

// The rest of WA1's shape is fixed: a 10 Mb/s pipe with a 64-block
// warmup of which an eighth is read twice, over a 6-node home xFS.
const (
	// waBandwidthMbps of the (symmetric) WAN pipes. Low on purpose: the
	// warmup's serialization term is the whole trade.
	waBandwidthMbps = 10.0
	// waFileBlocks blocks are written and warmed per file; waUsedBlocks
	// of them are read, waReuse times each — the warmup over-fetches
	// waFileBlocks-waUsedBlocks blocks per file.
	waFileBlocks = 64
	waUsedBlocks = 8
	waReuse      = 2
	// waXFSNodes in the home cluster.
	waXFSNodes = 6
	waSeed     = 1995
)

// WARow is one latency cell: both modes measured over the same seeded
// federation, plus the closed-form prediction for each.
type WARow struct {
	Latency      sim.Duration
	RefetchMs    float64 // no-cache reader makespan
	CachedMs     float64 // lease-warmup reader makespan
	PredRefetch  float64
	PredCached   float64
	CachingWins  bool
	PredictedWin bool
}

// waStart is the experiment-level WAN cast that releases the reader
// once the home cluster has seeded its files (gateway ids 0x30+ are
// reserved for embedders).
const waStart uint8 = 0x30

// WideAreaStudy is experiment WA1. It returns the report, the sweep
// rows, and the predicted crossover latency (ns).
func WideAreaStudy(cfg WideAreaConfig) (Report, []WARow, float64, error) {
	regs := map[string]*obs.Registry{}
	var rows []WARow

	blockBytes := xfs.DefaultConfig(waXFSNodes).BlockBytes
	serNs := costmodel.WANTransferNs(int64(blockBytes), waBandwidthMbps)
	// Per-call overhead beyond propagation and the block itself: the
	// request and reply framing on the thin pipe. The home-side xFS
	// read time appears identically in both modes' measurements, so the
	// closed form carries only the wire terms.
	hdrNs := 2 * costmodel.WANTransferNs(96, waBandwidthMbps)
	localNs := float64(30 * sim.Microsecond)
	reads := waUsedBlocks * waReuse
	crossNs := costmodel.FedCrossoverLatencyNs(reads, waFileBlocks, serNs, hdrNs, localNs)

	for _, lat := range cfg.Latencies {
		var cell [2]float64
		for mode := 0; mode < 2; mode++ { // 0 = no-cache, 1 = cached
			ms, reg, err := waOne(cfg, lat, mode == 1)
			if err != nil {
				return Report{}, nil, 0, fmt.Errorf("wa1 lat=%v mode=%d: %w", lat, mode, err)
			}
			cell[mode] = ms
			regs[fmt.Sprintf("lat%03dms-%s", int(lat/sim.Millisecond), []string{"refetch", "cached"}[mode])] = reg
		}
		rttNs := float64(2 * lat)
		pr := costmodel.FedRefetchNs(reads*cfg.Files, rttNs, serNs, hdrNs) / 1e6
		pc := float64(cfg.Files) * costmodel.FedCachedNs(reads, waFileBlocks, rttNs, serNs, hdrNs, localNs) / 1e6
		rows = append(rows, WARow{
			Latency:      lat,
			RefetchMs:    cell[0],
			CachedMs:     cell[1],
			PredRefetch:  pr,
			PredCached:   pc,
			CachingWins:  cell[1] < cell[0],
			PredictedWin: pc < pr,
		})
	}

	table := stats.NewTable("WA1: cross-cluster caching vs re-fetch from home, WAN latency sweep",
		"latency", "refetch ms", "cached ms", "pred refetch", "pred cached", "winner", "predicted")
	for _, r := range rows {
		table.AddRow(
			fmt.Sprintf("%dms", int(r.Latency/sim.Millisecond)),
			fmt.Sprintf("%.2f", r.RefetchMs),
			fmt.Sprintf("%.2f", r.CachedMs),
			fmt.Sprintf("%.2f", r.PredRefetch),
			fmt.Sprintf("%.2f", r.PredCached),
			winner(r.CachingWins),
			winner(r.PredictedWin),
		)
	}
	return Report{
		ID:    "WA1",
		Title: "NOW of NOWs: lease-warmed cross-cluster caching vs per-read home fetch, 1–100 ms WAN",
		Table: table,
		Notes: fmt.Sprintf("%d files × %d-block warmup, %d blocks read ×%d on a %.0f Mb/s WAN; closed-form crossover at %.1f ms one-way",
			cfg.Files, waFileBlocks, waUsedBlocks, waReuse, waBandwidthMbps, crossNs/1e6),
		Obs: regs,
	}, rows, crossNs, nil
}

func winner(caching bool) string {
	if caching {
		return "cached"
	}
	return "refetch"
}

// waOne runs one (latency, mode) cell: seed the home files, release the
// reader over the WAN, measure the reader's makespan.
func waOne(cfg WideAreaConfig, lat sim.Duration, cached bool) (float64, *obs.Registry, error) {
	f, err := federation.New(federation.Config{
		Clusters: []federation.ClusterConfig{
			{Name: "home", XFSNodes: waXFSNodes},
			{Name: "reader"},
		},
		WAN: federation.WANConfig{Latency: lat, BandwidthMbps: waBandwidthMbps},
		FedFS: federation.FSConfig{
			FileBlocks:  waFileBlocks,
			CacheBlocks: cfg.Files*waFileBlocks + 16,
			NoCache:     !cached,
		},
		Seed: waSeed,
	})
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	home, reader := f.Cluster(0), f.Cluster(1)

	start := sim.NewSignal(reader.Engine(), "wa1.start")
	reader.Gateway().HandleCast(waStart, func(int, any) { start.Broadcast() })

	home.Engine().Spawn("wa1.seed", func(p *sim.Proc) {
		w := home.FS.Client(0)
		data := make([]byte, xfs.DefaultConfig(waXFSNodes).BlockBytes)
		for i := range data {
			data[i] = byte(i)
		}
		for file := 0; file < cfg.Files; file++ {
			for blk := 0; blk < waFileBlocks; blk++ {
				if err := w.Write(p, xfs.FileID(file+1), uint32(blk), data); err != nil {
					home.Engine().Fail(fmt.Errorf("seed %d/%d: %w", file, blk, err))
					return
				}
			}
		}
		if err := w.Sync(p); err != nil {
			home.Engine().Fail(err)
			return
		}
		home.Gateway().Cast(reader.ID(), waStart, nil, 16)
	})

	var elapsed sim.Duration
	reader.Engine().Spawn("wa1.reader", func(p *sim.Proc) {
		start.Wait(p)
		stride := waFileBlocks / waUsedBlocks
		t0 := p.Now()
		for file := 0; file < cfg.Files; file++ {
			for r := 0; r < waReuse; r++ {
				for u := 0; u < waUsedBlocks; u++ {
					if _, err := reader.FedFS().Read(p, xfs.FileID(file+1), uint32(u*stride)); err != nil {
						reader.Engine().Fail(fmt.Errorf("read %d/%d: %w", file, u*stride, err))
						return
					}
				}
			}
		}
		elapsed = sim.Duration(p.Now() - t0)
	})

	if err := f.Run(sim.Time(10 * sim.Minute)); err != nil {
		return 0, nil, err
	}
	return elapsed.Milliseconds(), f.Merged(), nil
}
