package main

import (
	"bytes"
	"errors"
	"fmt"

	now "github.com/nowproject/now"
)

// xfs-readmiss is the AV1 read load without the faults: four streams,
// each on its own client, read a private 128-block file in seeded
// shuffles through a 16-block client cache. The file is 8x the cache,
// so nearly every read misses locally and pays a manager token call and
// a RAID-5 stripe read — the spawn-per-request AM path. Every byte read
// is checked against the seeded prefill.
const (
	rmNodes       = 10
	rmManagers    = 2
	rmCacheBlocks = 16
	rmStreams     = 4
	rmFileBlocks  = 128
	// rmFirstClient keeps the streams off the manager nodes, as AV1 does.
	rmFirstClient = 3
	// rmReads is each stream's op count per rep.
	rmReads = 6000
)

func xfsReadMiss(rc repConfig, h *harness) (*outcome, error) {
	e := now.NewEngine(rc.seed)
	defer e.Close()
	reg := now.NewRegistry()
	e.Observe(reg)
	cfg := now.DefaultXFSConfig(rmNodes)
	cfg.Managers = rmManagers
	cfg.ClientCacheBlocks = rmCacheBlocks
	fsys, err := now.NewXFS(e, cfg)
	if err != nil {
		return nil, err
	}

	reads := rc.scaled(rmReads)
	rng := newSplitMix(rc.seed, 0)
	want := make([][][]byte, rmStreams)
	order := make([][]uint32, rmStreams)
	for s := range want {
		want[s] = make([][]byte, rmFileBlocks)
		for b := range want[s] {
			want[s][b] = make([]byte, cfg.BlockBytes)
			rng.fill(want[s][b])
		}
		for len(order[s]) < reads {
			order[s] = append(order[s], rng.perm(rmFileBlocks)...)
		}
		order[s] = order[s][:reads]
	}

	type stream struct {
		lat    []int64
		failed int64
		bad    error
	}
	st := make([]stream, rmStreams)
	var atReady simTally
	var netReady netTally
	var xfsReady = fsys.Stats()
	e.Spawn("nowperf/main", func(p *now.Proc) {
		prefill := now.NewWaitGroup(e, "prefill")
		prefill.Add(rmStreams)
		for s := 0; s < rmStreams; s++ {
			c, file := fsys.Client(rmFirstClient+s), now.FileID(1+s)
			e.Spawn("nowperf/prefill", func(p *now.Proc) {
				defer prefill.Done()
				for b, data := range want[s] {
					if err := c.Write(p, file, uint32(b), data); err != nil {
						p.Fail(fmt.Errorf("prefill write %d/%d: %w", file, b, err))
					}
				}
				if err := c.Sync(p); err != nil {
					p.Fail(fmt.Errorf("prefill sync %d: %w", file, err))
				}
			})
		}
		prefill.Wait(p)

		atReady = simTallyOf(reg.Snapshot())
		fst := fsys.Fabric().Stats()
		netReady = netTally{fst.Offered, fst.OfferedBytes, fst.Drops}
		xfsReady = fsys.Stats()
		h.ready()

		done := now.NewWaitGroup(e, "streams")
		done.Add(rmStreams)
		for s := 0; s < rmStreams; s++ {
			c, file, me := fsys.Client(rmFirstClient+s), now.FileID(1+s), &st[s]
			me.lat = make([]int64, 0, reads)
			e.Spawn("nowperf/stream", func(p *now.Proc) {
				defer done.Done()
				for i, blk := range order[s] {
					t0 := p.Now()
					sp := h.tr.op("xfs.Client.Read", h.run, int64(i), s, int64(t0))
					got, err := c.Read(p, file, blk)
					h.tr.end(sp, int64(p.Now()))
					if err != nil {
						me.failed++
						continue
					}
					if !bytes.Equal(got, want[s][blk]) && me.bad == nil {
						me.bad = fmt.Errorf("stream %d op %d: file %d block %d differs from the prefill", s, i, file, blk)
					}
					me.lat = append(me.lat, int64(p.Now()-t0))
				}
			})
		}
		done.Wait(p)
		e.Stop()
	})
	if err := e.Run(); err != nil && !errors.Is(err, now.ErrStopped) {
		return nil, err
	}

	out := &outcome{virtEnd: int64(e.Now()), layers: map[string]float64{}}
	for _, s := range st {
		if s.bad != nil {
			return nil, s.bad
		}
		out.ops += int64(len(s.lat))
		out.failed += s.failed
		out.lat = append(out.lat, s.lat...)
	}
	sim := simTallyOf(reg.Snapshot()).minus(atReady)
	out.events = sim.events
	setSim(out.layers, sim, out.ops)

	fst := fsys.Fabric().Stats()
	net, err := checkFabric("xfs", fst.Offered, fst.Delivered, fst.Drops, fst.OfferedBytes)
	if err != nil {
		return nil, err
	}
	setNet(out.layers, net.minus(netReady), out.ops)
	amNotExposed(out.layers)

	xs := fsys.Stats()
	nReads := xs.Reads - xfsReady.Reads
	out.layers["xfs.read_virt_us.p50"] = quantileUs(out.lat, 0.50)
	out.layers["xfs.read_virt_us.p99"] = quantileUs(out.lat, 0.99)
	out.layers["xfs.miss_ratio"] = 1 - perOp(xs.LocalHits-xfsReady.LocalHits, nReads)
	out.layers["xfs.storage_reads_per_op"] = perOp(xs.StorageReads-xfsReady.StorageReads, out.ops)
	out.layers["xfs.cache_transfers_per_op"] = perOp(xs.CacheTransfers-xfsReady.CacheTransfers, out.ops)
	var degraded int64
	for i := 0; i < rmNodes; i++ {
		_, _, d := fsys.Client(i).Array().Stats()
		degraded += d
	}
	out.layers["swraid.degraded_reads"] = float64(degraded)
	return out, nil
}
