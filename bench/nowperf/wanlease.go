package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	now "github.com/nowproject/now"
)

// wan-lease is two buildings federated over a 2 ms / 45 Mb/s WAN, each
// with a 6-node xFS homing half of 16 shared files. Eight procs per
// building issue a seeded 70/30 mix of FedFS reads and writes, with 5 ms
// of think time, closed-loop. Remote files go through whole-file
// leases, so the mix exercises grants, recall-before-conflicting-write,
// at-most-once WAN calls and the sharded engine (one partition per
// building, two workers), none of which the other workloads touch.
//
// Every block carries a header naming its file, block, writer and
// version, and a body derived from that header; a read must return
// either a never-written (zero) block or an intact block that some proc
// really wrote.
const (
	wlProcsPerSide = 8
	wlFiles        = 16
	wlFileBlocks   = 4
	wlCacheBlocks  = 64
	wlReadFrac     = 0.7
	wlThink        = 5 * now.Millisecond
	wlOps          = 1500 // per proc per rep
	// wlRetries raises the WAN call budget from the default 4 attempts:
	// with the default, calls queued behind whole-file lease warmups on a
	// contended file time out on a lossless WAN and the op fails.
	wlRetries = 8
)

type wlProc struct {
	id     int
	lat    []int64
	failed int64
	writes int64      // versions this proc wrote
	seen   [][2]int64 // (writer, version) of every non-zero block read
	bad    error
}

func wanLease(rc repConfig, h *harness) (*outcome, error) {
	fed, err := now.NewFederation(now.FederationConfig{
		Clusters: []now.FederationCluster{{Name: "east", XFSNodes: 6}, {Name: "west", XFSNodes: 6}},
		WAN:      now.WANConfig{Latency: 2 * now.Millisecond, BandwidthMbps: 45, CallRetries: wlRetries},
		FedFS:    now.FederatedXFSConfig{FileBlocks: wlFileBlocks, CacheBlocks: wlCacheBlocks},
		Seed:     rc.seed,
		Workers:  2,
	})
	if err != nil {
		return nil, err
	}
	defer fed.Close()
	ops := rc.scaled(wlOps)
	blockBytes := now.DefaultXFSConfig(6).BlockBytes

	procs := make([]*wlProc, 2*wlProcsPerSide)
	for c := 0; c < 2; c++ {
		member := fed.Cluster(c)
		fs := member.FedFS()
		for k := 0; k < wlProcsPerSide; k++ {
			me := &wlProc{id: c*wlProcsPerSide + k, lat: make([]int64, 0, ops)}
			procs[me.id] = me
			rng := newSplitMix(rc.seed, uint64(100+me.id))
			member.Engine().Spawn("nowperf/fedproc", func(p *now.Proc) {
				buf := make([]byte, blockBytes)
				for i := 0; i < ops; i++ {
					p.Sleep(rng.expo(wlThink))
					f, blk := now.FileID(1+rng.intn(wlFiles)), uint32(rng.intn(wlFileBlocks))
					read := rng.float() < wlReadFrac
					t0 := p.Now()
					var err error
					if read {
						sp := h.tr.op("FedFS.Read", h.run, int64(i), me.id, int64(t0))
						var got []byte
						got, err = fs.Read(p, f, blk)
						h.tr.end(sp, int64(p.Now()))
						if err == nil {
							me.check(got, f, blk)
						}
					} else {
						me.writes++
						fillBlock(buf, f, blk, me.id, me.writes)
						sp := h.tr.op("FedFS.Write", h.run, int64(i), me.id, int64(t0))
						err = fs.Write(p, f, blk, buf)
						h.tr.end(sp, int64(p.Now()))
					}
					if err != nil {
						me.failed++
						continue
					}
					me.lat = append(me.lat, int64(p.Now()-t0))
				}
			})
		}
	}

	atReady := simTallyOf(fed.Merged().Snapshot())
	h.ready()
	if err := fed.Run(now.Time(now.Hour)); err != nil {
		return nil, err
	}

	out := &outcome{layers: map[string]float64{}}
	for _, me := range procs {
		if me.bad != nil {
			return nil, me.bad
		}
		for _, s := range me.seen {
			if s[1] > procs[s[0]].writes {
				return nil, fmt.Errorf("proc %d read version %d of proc %d, which wrote only %d", me.id, s[1], s[0], procs[s[0]].writes)
			}
		}
		out.ops += int64(len(me.lat))
		out.failed += me.failed
		out.lat = append(out.lat, me.lat...)
	}
	for c := 0; c < 2; c++ {
		out.virtEnd = max(out.virtEnd, int64(fed.Cluster(c).Engine().Now()))
	}

	merged := fed.Merged()
	snap := merged.Snapshot()
	sim := simTallyOf(snap).minus(atReady)
	out.events = sim.events
	setSim(out.layers, sim, out.ops)
	counter := func(name string) int64 { return valueOf(snap, name) }
	if sent, recv, drops := counter("wan.sent"), counter("wan.recv"), counter("wan.drops"); sent-recv != drops {
		return nil, fmt.Errorf("wan: sent %d - received %d != drops %d after the run drained", sent, recv, drops)
	}

	var net netTally
	var reads, hits, storage, transfers int64
	for c := 0; c < 2; c++ {
		fsys := fed.Cluster(c).FS
		fst := fsys.Fabric().Stats()
		t, err := checkFabric(fed.Cluster(c).Name(), fst.Offered, fst.Delivered, fst.Drops, fst.OfferedBytes)
		if err != nil {
			return nil, err
		}
		net = net.plus(t)
		xs := fsys.Stats()
		reads, hits = reads+xs.Reads, hits+xs.LocalHits
		storage, transfers = storage+xs.StorageReads, transfers+xs.CacheTransfers
	}
	setNet(out.layers, net, out.ops)
	amNotExposed(out.layers)
	out.layers["xfs.miss_ratio"] = 1 - perOp(hits, reads)
	out.layers["xfs.storage_reads_per_op"] = perOp(storage, out.ops)
	out.layers["xfs.cache_transfers_per_op"] = perOp(transfers, out.ops)
	out.layers["fed.op_virt_us.p50"] = quantileUs(out.lat, 0.50)
	out.layers["fed.op_virt_us.p99"] = quantileUs(out.lat, 0.99)
	out.layers["fed.wan_calls_per_op"] = perOp(counter("wan.calls"), out.ops)
	out.layers["fed.wan_timeouts_per_kop"] = 1000 * perOp(counter("wan.call.timeouts"), out.ops)
	out.layers["fed.recalls_per_op"] = perOp(counter("fed.lease.recalls"), out.ops)
	return out, nil
}

// Block layout: file, block, writer (uint32 each), version (uint64),
// 4 bytes of padding, then a body generated from those four values.
const wlHeader = 24

func fillBlock(b []byte, f now.FileID, blk uint32, writer int, version int64) {
	binary.LittleEndian.PutUint32(b[0:], uint32(f))
	binary.LittleEndian.PutUint32(b[4:], blk)
	binary.LittleEndian.PutUint32(b[8:], uint32(writer))
	binary.LittleEndian.PutUint64(b[12:], uint64(version))
	body := newSplitMix(version, uint64(f)<<40|uint64(blk)<<20|uint64(writer))
	for i := wlHeader; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], body.next())
	}
}

// check verifies one read block and records whose write it returned.
func (me *wlProc) check(got []byte, f now.FileID, blk uint32) {
	if me.bad != nil {
		return
	}
	if allZero(got) {
		return
	}
	writer := int(binary.LittleEndian.Uint32(got[8:]))
	version := int64(binary.LittleEndian.Uint64(got[12:]))
	if writer >= 2*wlProcsPerSide || version < 1 {
		me.bad = fmt.Errorf("proc %d read file %d block %d: header names writer %d version %d", me.id, f, blk, writer, version)
		return
	}
	want := make([]byte, len(got))
	fillBlock(want, f, blk, writer, version)
	if !bytes.Equal(got, want) {
		me.bad = fmt.Errorf("proc %d read file %d block %d: not an intact write (writer %d version %d)", me.id, f, blk, writer, version)
		return
	}
	me.seen = append(me.seen, [2]int64{int64(writer), version})
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
