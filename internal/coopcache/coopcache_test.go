package coopcache

import (
	"errors"
	"testing"

	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/trace"
)

// smallConfig returns a shrunken system for unit tests: 4 clients with
// 8-block caches, a 16-block server cache.
func smallConfig(policy Policy) Config {
	cfg := DefaultConfig(policy)
	cfg.Clients = 4
	cfg.ClientCacheBlocks = 8
	cfg.ServerCacheBlocks = 16
	return cfg
}

func build(t *testing.T, cfg Config) (*sim.Engine, *System) {
	t.Helper()
	e := sim.NewEngine(cfg.Seed)
	sys, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, sys
}

func drive(t *testing.T, e *sim.Engine, body func(p *sim.Proc)) {
	t.Helper()
	e.Spawn("driver", func(p *sim.Proc) {
		body(p)
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
}

func blk(f, b uint32) BlockID { return BlockID{File: f, Block: b} }

func TestFirstReadGoesToDisk(t *testing.T) {
	e, sys := build(t, smallConfig(ClientServer))
	drive(t, e, func(p *sim.Proc) {
		sys.clients[0].Read(p, blk(1, 0))
	})
	st := sys.Stats()
	if st.DiskReads != 1 || st.LocalHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSecondReadIsLocalHit(t *testing.T) {
	e, sys := build(t, smallConfig(ClientServer))
	drive(t, e, func(p *sim.Proc) {
		sys.clients[0].Read(p, blk(1, 0))
		sys.clients[0].Read(p, blk(1, 0))
	})
	st := sys.Stats()
	if st.LocalHits != 1 || st.DiskReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerCacheServesSecondClient(t *testing.T) {
	e, sys := build(t, smallConfig(ClientServer))
	drive(t, e, func(p *sim.Proc) {
		sys.clients[0].Read(p, blk(1, 0))
		sys.clients[1].Read(p, blk(1, 0))
	})
	st := sys.Stats()
	if st.DiskReads != 1 || st.ServerMemHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestForwardingServesFromPeerCache(t *testing.T) {
	// Under Greedy, when the server cache has lost the block but a peer
	// still caches it, the read is forwarded.
	cfg := smallConfig(Greedy)
	cfg.ServerCacheBlocks = 1 // server cache forgets immediately
	e, sys := build(t, cfg)
	drive(t, e, func(p *sim.Proc) {
		sys.clients[0].Read(p, blk(1, 0))
		sys.clients[0].Read(p, blk(2, 0)) // pushes (1,0) out of server cache
		sys.clients[1].Read(p, blk(1, 0)) // must come from client 0
	})
	st := sys.Stats()
	if st.RemoteHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DiskReads != 2 {
		t.Fatalf("disk reads = %d, want 2 (cold blocks only)", st.DiskReads)
	}
}

func TestClientServerNeverForwards(t *testing.T) {
	cfg := smallConfig(ClientServer)
	cfg.ServerCacheBlocks = 1
	e, sys := build(t, cfg)
	drive(t, e, func(p *sim.Proc) {
		sys.clients[0].Read(p, blk(1, 0))
		sys.clients[0].Read(p, blk(2, 0))
		sys.clients[1].Read(p, blk(1, 0)) // server cache lost it: disk again
	})
	st := sys.Stats()
	if st.RemoteHits != 0 {
		t.Fatalf("client-server forwarded: %+v", st)
	}
	if st.DiskReads != 3 {
		t.Fatalf("disk reads = %d, want 3", st.DiskReads)
	}
}

func TestRemoteHitFasterThanDisk(t *testing.T) {
	cfg := smallConfig(Greedy)
	cfg.ServerCacheBlocks = 1
	e, sys := build(t, cfg)
	var remoteTime, diskTime sim.Duration
	drive(t, e, func(p *sim.Proc) {
		start := p.Now()
		sys.clients[0].Read(p, blk(1, 0))
		diskTime = p.Now() - start
		sys.clients[0].Read(p, blk(2, 0))
		start = p.Now()
		sys.clients[1].Read(p, blk(1, 0))
		remoteTime = p.Now() - start
	})
	if remoteTime >= diskTime {
		t.Fatalf("remote hit %v not faster than disk %v", remoteTime, diskTime)
	}
	// Table 2 magnitudes: remote ≈1–2 ms, disk ≈15–17 ms.
	if remoteTime > 3*sim.Millisecond {
		t.Fatalf("remote hit = %v, want ≈1.5ms", remoteTime)
	}
	if diskTime < 14*sim.Millisecond {
		t.Fatalf("disk read = %v, want ≈16ms", diskTime)
	}
}

func TestNChanceRecirculatesSinglets(t *testing.T) {
	cfg := smallConfig(NChance)
	cfg.ClientCacheBlocks = 4
	e, sys := build(t, cfg)
	drive(t, e, func(p *sim.Proc) {
		// Fill client 0 beyond capacity with distinct singlets.
		for i := uint32(0); i < 8; i++ {
			sys.clients[0].Read(p, blk(1, i))
		}
	})
	st := sys.Stats()
	if st.Recirculations == 0 {
		t.Fatalf("no recirculations: %+v", st)
	}
	// Recirculated blocks must live in some other client's cache.
	found := 0
	for i := 1; i < 4; i++ {
		found += len(sys.clients[i].cache.Keys())
	}
	if found == 0 {
		t.Fatal("recirculated blocks not present in peer caches")
	}
}

func TestGreedyDoesNotRecirculate(t *testing.T) {
	cfg := smallConfig(Greedy)
	cfg.ClientCacheBlocks = 4
	e, sys := build(t, cfg)
	drive(t, e, func(p *sim.Proc) {
		for i := uint32(0); i < 8; i++ {
			sys.clients[0].Read(p, blk(1, i))
		}
	})
	if sys.Stats().Recirculations != 0 {
		t.Fatalf("greedy recirculated: %+v", sys.Stats())
	}
}

func TestRecirculationBoundedByN(t *testing.T) {
	cfg := smallConfig(NChance)
	cfg.Clients = 2
	cfg.ClientCacheBlocks = 2
	cfg.NChance = 2
	e, sys := build(t, cfg)
	drive(t, e, func(p *sim.Proc) {
		// Ping-pong a stream of singlets between two tiny caches; the
		// recirculation count must prevent an infinite loop.
		for i := uint32(0); i < 32; i++ {
			sys.clients[0].Read(p, blk(1, i))
		}
	})
	st := sys.Stats()
	if st.Recirculations == 0 {
		t.Fatal("expected some recirculation")
	}
	// Each block can recirculate at most NChance times.
	if st.Recirculations > 32*int64(cfg.NChance) {
		t.Fatalf("recirculations = %d, exceeds bound %d", st.Recirculations, 32*cfg.NChance)
	}
}

func TestWriteInvalidatesOtherCopies(t *testing.T) {
	e, sys := build(t, smallConfig(Greedy))
	drive(t, e, func(p *sim.Proc) {
		sys.clients[0].Read(p, blk(1, 0))
		sys.clients[1].Read(p, blk(1, 0))
		// Both cache it now; client 0 writes.
		sys.clients[0].Write(p, blk(1, 0))
		p.Sleep(10 * sim.Millisecond) // let invalidations land
		if _, ok := sys.clients[1].cache.Peek(blk(1, 0)); ok {
			t.Error("client 1 still caches invalidated block")
		}
		if _, ok := sys.clients[0].cache.Peek(blk(1, 0)); !ok {
			t.Error("writer lost its own copy")
		}
	})
}

func TestEvictionNoticesKeepDirectoryAccurate(t *testing.T) {
	cfg := smallConfig(Greedy)
	cfg.ClientCacheBlocks = 2
	e, sys := build(t, cfg)
	drive(t, e, func(p *sim.Proc) {
		sys.clients[0].Read(p, blk(1, 0))
		sys.clients[0].Read(p, blk(1, 1))
		sys.clients[0].Read(p, blk(1, 2)) // evicts (1,0)
		p.Sleep(10 * sim.Millisecond)
		if hs := sys.server.dir[blk(1, 0)]; len(hs) != 0 {
			t.Errorf("directory still lists holders for evicted block: %v", hs)
		}
	})
	if sys.Stats().EvictionNotices == 0 {
		t.Fatal("no eviction notices sent")
	}
}

func TestMissRateStat(t *testing.T) {
	s := Stats{Reads: 100, DiskReads: 16}
	if s.MissRate() != 0.16 {
		t.Fatalf("miss rate = %v", s.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("empty miss rate should be 0")
	}
}

func TestRunTraceEndToEnd(t *testing.T) {
	tcfg := trace.DefaultFileTraceConfig()
	tcfg.Clients = 4
	tcfg.Accesses = 2000
	tcfg.SharedFiles = 20
	tcfg.PrivateFilesPerClient = 8
	accesses := trace.GenerateFileTrace(tcfg)
	cfg := smallConfig(NChance)
	cfg.ClientCacheBlocks = 64
	cfg.ServerCacheBlocks = 128
	e, sys := build(t, cfg)
	if err := RunTrace(e, sys, accesses); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Reads+st.Writes != 2000 {
		t.Fatalf("processed %d ops, want 2000", st.Reads+st.Writes)
	}
	if st.LocalHits == 0 || st.DiskReads == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	if sys.MeanReadResponse() <= 0 {
		t.Fatal("no mean response time")
	}
	if len(sys.resp) != int(st.Reads) {
		t.Fatalf("recorded %d responses for %d reads", len(sys.resp), st.Reads)
	}
}

func TestCooperationBeatsClientServerOnSharedTrace(t *testing.T) {
	// The Table 3 effect at reduced scale: with a shared working set
	// larger than the server cache, cooperation must cut disk reads.
	tcfg := trace.DefaultFileTraceConfig()
	tcfg.Clients = 8
	tcfg.Accesses = 8000
	tcfg.SharedFiles = 64
	tcfg.SharedFileBlocks = 32
	tcfg.PrivateFilesPerClient = 16
	tcfg.PrivateFileBlocks = 16
	accesses := trace.GenerateFileTrace(tcfg)
	run := func(policy Policy) Stats {
		cfg := DefaultConfig(policy)
		cfg.Clients = 8
		cfg.ClientCacheBlocks = 256
		cfg.ServerCacheBlocks = 256
		e, sys := build(t, cfg)
		if err := RunTrace(e, sys, accesses); err != nil {
			t.Fatal(err)
		}
		return sys.Stats()
	}
	base := run(ClientServer)
	coop := run(NChance)
	if coop.DiskReads >= base.DiskReads {
		t.Fatalf("cooperation did not reduce disk reads: base=%d coop=%d",
			base.DiskReads, coop.DiskReads)
	}
	ratio := float64(base.DiskReads) / float64(coop.DiskReads)
	if ratio < 1.2 {
		t.Fatalf("disk-read reduction only %.2f×", ratio)
	}
}

func TestPolicyString(t *testing.T) {
	if ClientServer.String() != "client-server" || NChance.String() != "n-chance" {
		t.Fatal("policy names wrong")
	}
	if Policy(99).String() == "" {
		t.Fatal("unknown policy should still render")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	if _, err := New(e, Config{}); err == nil {
		t.Fatal("zero clients accepted")
	}
}

func TestSingletHintClearedByPeerFetch(t *testing.T) {
	// A block fetched from a peer is by definition not a singlet: when
	// later evicted it must NOT recirculate.
	cfg := smallConfig(NChance)
	cfg.ClientCacheBlocks = 4
	cfg.ServerCacheBlocks = 1 // server cache forgets immediately
	e, sys := build(t, cfg)
	drive(t, e, func(p *sim.Proc) {
		sys.clients[0].Read(p, blk(1, 0)) // client 0: from disk (singlet hint set)
		sys.clients[0].Read(p, blk(9, 9)) // push (1,0) out of the server cache
		sys.clients[1].Read(p, blk(1, 0)) // client 1: fetched from client 0 → hint clear
		before := sys.Stats().Recirculations
		// Evict (1,0) from client 1 by filling its cache.
		for i := uint32(1); i <= 4; i++ {
			sys.clients[1].Read(p, blk(2, i))
		}
		p.Sleep(10 * sim.Millisecond)
		// Client 1's copy was not the last (client 0 still holds one):
		// its eviction must not have recirculated.
		if got := sys.Stats().Recirculations; got != before {
			t.Fatalf("non-singlet copy recirculated (%d→%d)", before, got)
		}
	})
}

func TestRecirculatedCopyKeepsHint(t *testing.T) {
	// A recirculated singlet is still (likely) a singlet: it may be
	// recirculated again, up to NChance times.
	cfg := smallConfig(NChance)
	cfg.Clients = 3
	cfg.ClientCacheBlocks = 2
	cfg.NChance = 2
	e, sys := build(t, cfg)
	drive(t, e, func(p *sim.Proc) {
		for i := uint32(0); i < 12; i++ {
			sys.clients[0].Read(p, blk(1, i))
		}
		p.Sleep(50 * sim.Millisecond)
	})
	st := sys.Stats()
	if st.Recirculations == 0 {
		t.Fatal("no recirculation at all")
	}
}

func TestWriteThroughDurability(t *testing.T) {
	// After a write, even if every cache drops the block, the server's
	// disk has it: a later read succeeds (from server, not error).
	cfg := smallConfig(Greedy)
	cfg.ClientCacheBlocks = 1
	cfg.ServerCacheBlocks = 1
	e, sys := build(t, cfg)
	drive(t, e, func(p *sim.Proc) {
		sys.clients[0].Write(p, blk(1, 0))
		sys.clients[0].Read(p, blk(7, 7)) // evict it everywhere
		sys.clients[1].Read(p, blk(8, 8))
		before := sys.Stats().DiskReads
		sys.clients[2].Read(p, blk(1, 0))
		if sys.Stats().DiskReads != before+1 {
			t.Fatalf("durable block not read from disk: %+v", sys.Stats())
		}
	})
}

// TestGaugesReadStatsLive: the coop.* gauges are the Stats fields, read
// through — with no Snapshot in between, a read mid-run, at the end and
// after ResetStats all agree with Stats().
func TestGaugesReadStatsLive(t *testing.T) {
	e, sys := build(t, smallConfig(NChance))
	reg := obs.NewRegistry()
	sys.Instrument(reg)
	check := func(when string) {
		t.Helper()
		st := sys.Stats()
		for name, want := range map[string]int64{
			"coop.reads": st.Reads, "coop.writes": st.Writes,
			"coop.hits.local": st.LocalHits, "coop.hits.remote": st.RemoteHits,
			"coop.reads.disk": st.DiskReads,
		} {
			if got, ok := reg.GaugeValue(name); !ok || got != want {
				t.Errorf("%s: %s = %d, %v; Stats says %d", when, name, got, ok, want)
			}
		}
	}
	drive(t, e, func(p *sim.Proc) {
		sys.clients[0].Read(p, blk(1, 0))
		sys.clients[1].Read(p, blk(1, 0))
		check("mid-run")
		sys.clients[0].Read(p, blk(1, 0))
		sys.clients[2].Write(p, blk(1, 1))
	})
	if got, _ := reg.GaugeValue("coop.reads"); got != 3 {
		t.Fatalf("coop.reads = %d, want 3", got)
	}
	check("end of run")
	sys.ResetStats()
	check("after ResetStats")
}
