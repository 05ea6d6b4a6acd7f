package xfs

import (
	"bytes"
	"errors"
	"testing"

	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/swraid"
)

func buildFS(t *testing.T, nodes int) (*sim.Engine, *System) {
	t.Helper()
	e := sim.NewEngine(1)
	cfg := DefaultConfig(nodes)
	cfg.BlockBytes = 1024 // small blocks keep tests quick
	cfg.ClientCacheBlocks = 16
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

func fill(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*11 + seed
	}
	return out
}

func TestReadUnwrittenBlockIsZeros(t *testing.T) {
	e, sys := buildFS(t, 6)
	drive(t, e, func(p *sim.Proc) {
		data, err := sys.Client(0).Read(p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range data {
			if b != 0 {
				t.Fatal("fresh block not zero")
			}
		}
	})
}

func TestWriteReadBackSameClient(t *testing.T) {
	e, sys := buildFS(t, 6)
	want := fill(1024, 3)
	drive(t, e, func(p *sim.Proc) {
		if err := sys.Client(0).Write(p, 1, 0, want); err != nil {
			t.Fatal(err)
		}
		got, err := sys.Client(0).Read(p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("read-back differs")
		}
	})
}

func TestReadYourPeersWrites(t *testing.T) {
	// Coherence: client 3 must see client 0's write even though it is
	// dirty in client 0's cache (owner downgrade + cache-to-cache).
	e, sys := buildFS(t, 6)
	want := fill(1024, 7)
	drive(t, e, func(p *sim.Proc) {
		if err := sys.Client(0).Write(p, 1, 0, want); err != nil {
			t.Fatal(err)
		}
		got, err := sys.Client(3).Read(p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("peer read returned stale data")
		}
	})
	if sys.Stats().CacheTransfers == 0 {
		t.Fatalf("no cache-to-cache transfer: %+v", sys.Stats())
	}
}

func TestWriteInvalidatesReaders(t *testing.T) {
	e, sys := buildFS(t, 6)
	v1 := fill(1024, 1)
	v2 := fill(1024, 2)
	drive(t, e, func(p *sim.Proc) {
		if err := sys.Client(0).Write(p, 1, 0, v1); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Client(2).Read(p, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Client(4).Read(p, 1, 0); err != nil {
			t.Fatal(err)
		}
		// A new writer invalidates both readers.
		if err := sys.Client(5).Write(p, 1, 0, v2); err != nil {
			t.Fatal(err)
		}
		p.Sleep(50 * sim.Millisecond) // let invalidations land
		got, err := sys.Client(2).Read(p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, v2) {
			t.Fatal("reader saw stale data after invalidation")
		}
	})
	if sys.Stats().Invalidations == 0 {
		t.Fatalf("no invalidations recorded: %+v", sys.Stats())
	}
}

func TestOwnershipMigratesBetweenWriters(t *testing.T) {
	e, sys := buildFS(t, 6)
	drive(t, e, func(p *sim.Proc) {
		a := fill(1024, 1)
		if err := sys.Client(0).Write(p, 1, 0, a); err != nil {
			t.Fatal(err)
		}
		b := fill(1024, 2)
		if err := sys.Client(1).Write(p, 1, 0, b); err != nil {
			t.Fatal(err)
		}
		got, err := sys.Client(2).Read(p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, b) {
			t.Fatal("second writer's data lost")
		}
	})
	if sys.Stats().OwnerYields == 0 {
		t.Fatalf("ownership never migrated: %+v", sys.Stats())
	}
}

func TestSyncPersistsToStorage(t *testing.T) {
	e, sys := buildFS(t, 6)
	want := fill(1024, 9)
	drive(t, e, func(p *sim.Proc) {
		if err := sys.Client(0).Write(p, 1, 0, want); err != nil {
			t.Fatal(err)
		}
		if err := sys.Client(0).Sync(p); err != nil {
			t.Fatal(err)
		}
	})
	if sys.Stats().StorageWrites == 0 {
		t.Fatalf("sync did not write storage: %+v", sys.Stats())
	}
}

// TestReadResultIsCallersCopy checks the one copy Read makes at the API
// edge: the client cache and the RAID store share a block's bytes, so a
// caller writing into what Read returned must change neither. Re-reads
// from the same client (a local hit), from a peer (a cache-to-cache
// transfer) and from storage must all return the original bytes.
func TestReadResultIsCallersCopy(t *testing.T) {
	e, sys := buildFS(t, 6)
	want := fill(1024, 5)
	// evict pushes file 1 out of c's 16-block cache by reading 16 blocks
	// of another file, and lets the eviction notes reach the manager.
	evict := func(p *sim.Proc, c *Client) {
		for i := uint32(0); i < 16; i++ {
			if _, err := c.Read(p, 2, i); err != nil {
				t.Error(err)
			}
		}
		p.Sleep(10 * sim.Millisecond)
	}
	check := func(p *sim.Proc, c *Client, what string) {
		got, err := c.Read(p, 1, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s returned changed bytes", what)
		}
		for i := range got {
			got[i] ^= 0xff
		}
	}
	drive(t, e, func(p *sim.Proc) {
		if err := sys.Client(0).Write(p, 1, 0, want); err != nil {
			t.Fatal(err)
		}
		if err := sys.Client(0).Sync(p); err != nil {
			t.Fatal(err)
		}
		evict(p, sys.Client(0))
		reads := sys.Stats().StorageReads
		check(p, sys.Client(1), "storage read")
		if sys.Stats().StorageReads != reads+1 {
			t.Errorf("first read did not go to storage: %+v", sys.Stats())
		}
		check(p, sys.Client(1), "local re-read")
		check(p, sys.Client(2), "peer read")
		evict(p, sys.Client(1))
		evict(p, sys.Client(2))
		reads = sys.Stats().StorageReads
		check(p, sys.Client(3), "second storage read")
		if sys.Stats().StorageReads != reads+1 {
			t.Errorf("second storage read was served elsewhere: %+v", sys.Stats())
		}
	})
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	e, sys := buildFS(t, 6)
	drive(t, e, func(p *sim.Proc) {
		c := sys.Client(0)
		// Write more distinct blocks than the cache holds (16).
		for i := uint32(0); i < 24; i++ {
			if err := c.Write(p, 1, i, fill(1024, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		// Every block must still read back correctly from elsewhere.
		for i := uint32(0); i < 24; i++ {
			got, err := sys.Client(1).Read(p, 1, i)
			if err != nil {
				t.Fatalf("block %d: %v", i, err)
			}
			if !bytes.Equal(got, fill(1024, byte(i))) {
				t.Fatalf("block %d corrupted after eviction", i)
			}
		}
	})
	if sys.Stats().StorageWrites == 0 {
		t.Fatal("evictions never wrote storage")
	}
}

func TestStorageNodeCrashDegradedRead(t *testing.T) {
	e, sys := buildFS(t, 6)
	want := make([][]byte, 12)
	drive(t, e, func(p *sim.Proc) {
		c := sys.Client(0)
		for i := range want {
			want[i] = fill(1024, byte(i+40))
			if err := c.Write(p, 2, uint32(i), want[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Sync(p); err != nil {
			t.Fatal(err)
		}
		// Crash a pure storage node (not a manager: managers live on the
		// first Nodes/4 nodes; node 5 is safe here).
		sys.eps[5].Detach()
		for _, cl := range sys.clients {
			cl.Array().MarkFailed(sys.eps[5].ID())
		}
		// A cold client (whose cache has nothing) must still read
		// everything through parity.
		for i := range want {
			got, err := sys.Client(3).Read(p, 2, uint32(i))
			if err != nil {
				t.Fatalf("degraded read %d: %v", i, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("degraded read %d returned wrong data", i)
			}
		}
	})
}

func TestManagerFailover(t *testing.T) {
	e, sys := buildFS(t, 8)
	// With 8 nodes there are 2 managers: files 0,2,… → manager 0 (node
	// 0); files 1,3,… → manager 1 (node 1).
	want := fill(1024, 5)
	drive(t, e, func(p *sim.Proc) {
		// File 2 is managed by manager 0 on node 0.
		if err := sys.Client(3).Write(p, 2, 0, want); err != nil {
			t.Fatal(err)
		}
		if err := sys.Client(3).Sync(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(100 * sim.Millisecond) // let metadata replication land
		sys.FailManager(p, 0)
		// Reads of manager-0 files must still work via the standby.
		got, err := sys.Client(4).Read(p, 2, 0)
		if err != nil {
			t.Fatalf("read after failover: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("failover returned wrong data")
		}
		// And writes too.
		v2 := fill(1024, 6)
		if err := sys.Client(5).Write(p, 2, 0, v2); err != nil {
			t.Fatalf("write after failover: %v", err)
		}
		got, err = sys.Client(6).Read(p, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, v2) {
			t.Fatal("post-failover write lost")
		}
	})
	if sys.Stats().Failovers != 1 {
		t.Fatalf("stats: %+v", sys.Stats())
	}
}

func TestCooperativeCachingServesFromPeer(t *testing.T) {
	e, sys := buildFS(t, 6)
	want := fill(1024, 8)
	drive(t, e, func(p *sim.Proc) {
		if err := sys.Client(0).Write(p, 3, 0, want); err != nil {
			t.Fatal(err)
		}
		if err := sys.Client(0).Sync(p); err != nil {
			t.Fatal(err)
		}
		before := sys.Stats().StorageReads
		// Client 1 reads (from client 0's cache), then client 2 reads —
		// also from a peer cache, never storage.
		if _, err := sys.Client(1).Read(p, 3, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Client(2).Read(p, 3, 0); err != nil {
			t.Fatal(err)
		}
		if sys.Stats().StorageReads != before {
			t.Fatalf("reads hit storage despite cached copies: %+v", sys.Stats())
		}
	})
	if sys.Stats().CacheTransfers < 2 {
		t.Fatalf("cache transfers = %d, want ≥2", sys.Stats().CacheTransfers)
	}
}

func TestLocalHitIsFast(t *testing.T) {
	e, sys := buildFS(t, 6)
	drive(t, e, func(p *sim.Proc) {
		c := sys.Client(0)
		if err := c.Write(p, 1, 0, fill(1024, 1)); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		if _, err := c.Read(p, 1, 0); err != nil {
			t.Fatal(err)
		}
		if d := p.Now() - start; d > sim.Millisecond {
			t.Fatalf("local hit took %v", d)
		}
	})
	if sys.Stats().LocalHits != 1 {
		t.Fatalf("stats: %+v", sys.Stats())
	}
}

func TestWriteSizeValidation(t *testing.T) {
	e, sys := buildFS(t, 6)
	drive(t, e, func(p *sim.Proc) {
		if err := sys.Client(0).Write(p, 1, 0, make([]byte, 99)); err == nil {
			t.Fatal("short write accepted")
		}
	})
}

func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	if _, err := New(e, Config{Nodes: 2}); err == nil {
		t.Fatal("2 nodes accepted for RAID-5")
	}
	cfg := DefaultConfig(6)
	cfg.Managers = 0
	if _, err := New(e, cfg); err == nil {
		t.Fatal("0 managers accepted")
	}
	cfg = DefaultConfig(6)
	cfg.BlockBytes = 0
	if _, err := New(e, cfg); err == nil {
		t.Fatal("0 block size accepted")
	}
}

func TestRAID0ConfigWorksWithoutFailures(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(4)
	cfg.BlockBytes = 512
	cfg.RAIDLevel = swraid.RAID0
	sys, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fill(512, 2)
	drive(t, e, func(p *sim.Proc) {
		if err := sys.Client(0).Write(p, 1, 0, want); err != nil {
			t.Fatal(err)
		}
		if err := sys.Client(0).Sync(p); err != nil {
			t.Fatal(err)
		}
		got, err := sys.Client(2).Read(p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("RAID-0 round trip failed")
		}
	})
}

// TestGaugesReadStatsLive: the xfs.* gauges are the Stats fields, read
// through — mid-run and at the end, with no Snapshot, they equal Stats().
func TestGaugesReadStatsLive(t *testing.T) {
	e, sys := buildFS(t, 6)
	reg := obs.NewRegistry()
	sys.Instrument(reg)
	check := func(when string) {
		t.Helper()
		st := sys.Stats()
		for name, want := range map[string]int64{
			"xfs.reads": st.Reads, "xfs.writes": st.Writes,
			"xfs.hits.local": st.LocalHits, "xfs.transfers.cache": st.CacheTransfers,
			"xfs.reads.storage": st.StorageReads,
		} {
			if got, ok := reg.GaugeValue(name); !ok || got != want {
				t.Errorf("%s: %s = %d, %v; Stats says %d", when, name, got, ok, want)
			}
		}
	}
	drive(t, e, func(p *sim.Proc) {
		if err := sys.Client(0).Write(p, 1, 0, fill(1024, 1)); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 3; c++ {
			if _, err := sys.Client(c).Read(p, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		check("mid-run")
		if _, err := sys.Client(4).Read(p, 2, 0); err != nil {
			t.Fatal(err)
		}
	})
	if got, _ := reg.GaugeValue("xfs.reads"); got != 4 {
		t.Fatalf("xfs.reads = %d, want 4", got)
	}
	check("end of run")
}
