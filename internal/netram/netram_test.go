package netram

import (
	"errors"
	"testing"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// rig builds one paging client (with memBytes of DRAM) and nServers
// idle-memory servers each donating donateFrames.
type rig struct {
	e       *sim.Engine
	reg     *Registry
	pager   *Pager
	client  *am.Endpoint
	servers []*Server
}

func newRig(t *testing.T, memBytes int64, nServers, donateFrames int) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	fab, err := netsim.New(e, netsim.ATM155(nServers+1))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int, mem int64) *am.Endpoint {
		cfg := node.DefaultConfig(netsim.NodeID(id))
		cfg.MemoryBytes = mem
		return am.NewEndpoint(e, node.New(e, cfg), fab, am.DefaultConfig())
	}
	r := &rig{e: e, reg: NewRegistry()}
	r.client = mk(0, memBytes)
	r.pager = NewPager(r.client, r.reg)
	for i := 0; i < nServers; i++ {
		ep := mk(i+1, 256<<20)
		s := NewServer(ep, donateFrames)
		r.servers = append(r.servers, s)
		r.reg.Offer(s)
	}
	return r
}

func (r *rig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	r.e.Spawn("test", func(p *sim.Proc) {
		body(p)
		r.e.Stop()
	})
	if err := r.e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
}

func pid(i uint32) node.PageID { return node.PageID{Space: 1, Index: i} }

func TestTouchHitIsFree(t *testing.T) {
	r := newRig(t, 1<<20, 1, 1024)
	r.run(t, func(p *sim.Proc) {
		r.pager.Touch(p, pid(0), true) // cold fault
		start := p.Now()
		if r.pager.Touch(p, pid(0), false) {
			t.Error("hit reported as fault")
		}
		if p.Now() != start {
			t.Errorf("hit consumed %v", p.Now()-start)
		}
	})
}

func TestColdFaultIsDemandZero(t *testing.T) {
	r := newRig(t, 1<<20, 1, 1024)
	r.run(t, func(p *sim.Proc) {
		start := p.Now()
		if !r.pager.Touch(p, pid(0), false) {
			t.Fatal("cold touch did not fault")
		}
		if p.Now() != start {
			t.Errorf("demand-zero fault took %v, want free", p.Now()-start)
		}
	})
	st := r.pager.Stats()
	if st.ZeroFills != 1 || st.DiskReads != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskResidentFaultReadsDisk(t *testing.T) {
	// One frame, no netram: write page 0 (dirty), evict it to disk by
	// touching page 1, then fault page 0 back: that is a disk read.
	r := newRig(t, 4096, 0, 0)
	r.run(t, func(p *sim.Proc) {
		r.pager.Touch(p, pid(0), true)
		r.pager.Touch(p, pid(1), true)
		start := p.Now()
		r.pager.Touch(p, pid(0), false)
		if p.Now()-start < 10*sim.Millisecond {
			t.Errorf("disk-resident fault took %v, want a disk access", p.Now()-start)
		}
	})
	// Two dirty evictions happen (page 0 pushed out by page 1, then
	// page 1 pushed out by page 0's return) and one disk read.
	st := r.pager.Stats()
	if st.DiskWrites != 2 || st.DiskReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionGoesToNetworkRAM(t *testing.T) {
	// 1 MB of DRAM = 256 frames; touch 300 distinct dirty pages.
	r := newRig(t, 1<<20, 1, 4096)
	r.run(t, func(p *sim.Proc) {
		for i := uint32(0); i < 300; i++ {
			r.pager.Touch(p, pid(i), true)
		}
	})
	st := r.pager.Stats()
	if st.RemoteStores == 0 {
		t.Fatalf("no remote stores: %+v", st)
	}
	if st.DiskWrites != 0 {
		t.Fatalf("dirty evictions hit disk despite idle memory: %+v", st)
	}
	if len(r.servers[0].store) != int(st.RemoteStores) {
		t.Fatalf("server stored %d, pager pushed %d", len(r.servers[0].store), st.RemoteStores)
	}
}

func TestRemoteFaultMuchFasterThanDisk(t *testing.T) {
	// Table 2's claim: remote memory is an order of magnitude faster
	// than disk for a miss.
	r := newRig(t, 1<<20, 1, 4096)
	var remote, disk sim.Duration
	r.run(t, func(p *sim.Proc) {
		// Fill memory + spill page 0 to the server.
		for i := uint32(0); i < 257; i++ {
			r.pager.Touch(p, pid(i), true)
		}
		// Page 1 is now... find a page known to be remote: page 0 was
		// evicted first (LRU) and is remote.
		start := p.Now()
		r.pager.Touch(p, pid(0), false)
		remote = p.Now() - start
		// A cold page beyond everything: disk fault (plus eviction cost;
		// measure a fresh cold read after filling from remote is messy,
		// so compare against one raw read of the idle disk).
		start = p.Now()
		r.client.Node().Disk.Read(p, 0, 4096)
		disk = p.Now() - start
	})
	if r.pager.Stats().RemoteHits == 0 {
		t.Fatalf("no remote hits: %+v", r.pager.Stats())
	}
	// The remote fault includes an eviction push + the fetch; it must
	// still beat one raw disk access by a wide margin.
	if float64(disk)/float64(remote) < 5 {
		t.Fatalf("remote fault %v vs disk %v: ratio %.1f, want ≥5×",
			remote, disk, float64(disk)/float64(remote))
	}
}

func TestServerFullFallsBackToDisk(t *testing.T) {
	r := newRig(t, 1<<20, 1, 10) // tiny donation
	r.run(t, func(p *sim.Proc) {
		for i := uint32(0); i < 300; i++ {
			r.pager.Touch(p, pid(i), true)
		}
	})
	st := r.pager.Stats()
	if st.RemoteStores == 0 || st.DiskWrites == 0 {
		t.Fatalf("expected both remote and disk spills: %+v", st)
	}
	if r.servers[0].free != 0 {
		t.Fatalf("server free = %d, want 0", r.servers[0].free)
	}
}

func TestSpillSpreadsAcrossServers(t *testing.T) {
	r := newRig(t, 1<<20, 3, 20)
	r.run(t, func(p *sim.Proc) {
		for i := uint32(0); i < 310; i++ {
			r.pager.Touch(p, pid(i), true)
		}
	})
	used := 0
	for _, s := range r.servers {
		if len(s.store) > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d servers used", used)
	}
}

func TestReclaimReturnsPagesToOwner(t *testing.T) {
	r := newRig(t, 1<<20, 1, 4096)
	r.run(t, func(p *sim.Proc) {
		for i := uint32(0); i < 300; i++ {
			r.pager.Touch(p, pid(i), true)
		}
		stored := len(r.servers[0].store)
		if stored == 0 {
			t.Fatal("nothing stored before reclaim")
		}
		r.reg.Withdraw(1)
		if err := r.servers[0].Reclaim(p); err != nil {
			t.Fatal(err)
		}
		if len(r.servers[0].store) != 0 {
			t.Fatal("server not empty after reclaim")
		}
		if int(r.pager.Stats().Returned) != stored {
			t.Fatalf("returned %d, want %d", r.pager.Stats().Returned, stored)
		}
		// Returned pages now live on disk: faulting one must be a disk
		// read, not a remote call.
		before := r.pager.Stats().DiskReads
		r.pager.Touch(p, pid(0), false)
		if r.pager.Stats().DiskReads != before+1 {
			t.Fatal("post-reclaim fault did not go to disk")
		}
	})
}

func TestCleanEvictionIsFree(t *testing.T) {
	r := newRig(t, 4096, 0, 0) // 1 frame, no netram
	r.run(t, func(p *sim.Proc) {
		r.pager.Touch(p, pid(0), false) // zero fill, clean
		start := p.Now()
		r.pager.Touch(p, pid(1), false) // evicts clean page 0
		if p.Now() != start {
			t.Fatalf("clean eviction cost %v", p.Now()-start)
		}
		st := r.pager.Stats()
		if st.DiskWrites != 0 {
			t.Fatalf("clean eviction wrote to disk: %+v", st)
		}
	})
}

func TestRegistryPickExcludesSelfAndFull(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	fab, err := netsim.New(e, netsim.ATM155(3))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	mk := func(id int) *Server {
		ep := am.NewEndpoint(e, node.New(e, node.DefaultConfig(netsim.NodeID(id))), fab, am.DefaultConfig())
		return NewServer(ep, 1)
	}
	s0, s1 := mk(0), mk(1)
	reg.Offer(s0)
	reg.Offer(s1)
	if s, ok := reg.Pick(0); !ok || s != s1 {
		t.Fatal("Pick(0) should return server 1")
	}
	s1.free = 0
	if _, ok := reg.Pick(0); ok {
		t.Fatal("Pick should fail when the only other server is full")
	}
	if reg.TotalFree() != 1 {
		t.Fatalf("TotalFree = %d", reg.TotalFree())
	}
}

func TestMultigridNetramBeatsDiskAndApproachesDRAM(t *testing.T) {
	// Figure 2 in miniature: a problem 2× local memory.
	const mb = 1 << 20
	run := func(mem int64, servers int) MultigridResult {
		t.Helper()
		r := newRig(t, mem, servers, 8192)
		var res MultigridResult
		r.run(t, func(p *sim.Proc) {
			cfg := DefaultMultigridConfig(8 * mb)
			cfg.Cycles = 2
			res = RunMultigrid(p, r.pager, cfg)
		})
		return res
	}
	disk := run(4*mb, 0)
	netram := run(4*mb, 2)
	dram := run(32*mb, 0)
	slowVsDRAM := float64(netram.Elapsed) / float64(dram.Elapsed)
	speedVsDisk := float64(disk.Elapsed) / float64(netram.Elapsed)
	if slowVsDRAM < 1.02 || slowVsDRAM > 1.5 {
		t.Fatalf("netram/DRAM = %.2f, want ≈1.1–1.3", slowVsDRAM)
	}
	if speedVsDisk < 4 || speedVsDisk > 15 {
		t.Fatalf("disk/netram = %.2f, want ≈5–10", speedVsDisk)
	}
	if netram.Pager.RemoteHits == 0 {
		t.Fatal("netram run had no remote hits")
	}
}

func TestMultigridInMemoryHasOnlyColdFaults(t *testing.T) {
	const mb = 1 << 20
	r := newRig(t, 64*mb, 0, 0)
	var res MultigridResult
	r.run(t, func(p *sim.Proc) {
		res = RunMultigrid(p, r.pager, DefaultMultigridConfig(8*mb))
	})
	// Cold faults only: total distinct pages across levels, all
	// demand-zero.
	pages := int64(0)
	for l := 0; l < 4; l++ {
		lv := int64(8*mb) >> (2 * l) / 4096
		if lv < 1 {
			lv = 1
		}
		pages += lv
	}
	if res.Pager.Faults != pages || res.Pager.ZeroFills != pages {
		t.Fatalf("faults = %+v, want %d cold zero-fills", res.Pager, pages)
	}
}

func TestServerCrashLosesPagesVisibly(t *testing.T) {
	r := newRig(t, 1<<20, 1, 4096)
	r.run(t, func(p *sim.Proc) {
		// Spill pages to the server, then crash it.
		for i := uint32(0); i < 300; i++ {
			r.pager.Touch(p, pid(i), true)
		}
		if r.pager.Stats().RemoteStores == 0 {
			t.Fatal("nothing spilled")
		}
		r.servers[0].ep.Detach()
		r.reg.Withdraw(1)
		// Fault a remotely-stored page: the data is gone; the pager must
		// report the loss rather than silently fabricating zeros.
		r.pager.Touch(p, pid(0), false)
	})
	st := r.pager.Stats()
	if st.LostPages == 0 {
		t.Fatalf("lost page not counted: %+v", st)
	}
}

// TestPickDeterministicAcrossRuns is a regression test for the
// directory's selection order: Pick must walk servers in ascending id
// order regardless of the (randomised) order they were offered in or
// how Go happens to lay out the backing map. It drains a multi-server
// registry — withdrawing and re-offering along the way — and requires
// the exact same selection sequence on every run.
func TestPickDeterministicAcrossRuns(t *testing.T) {
	sequence := func(offerOrder []int) []netsim.NodeID {
		r := newRig(t, 1<<20, 5, 2)
		// Re-offer in the caller's order; Offer replaces entries, so the
		// directory contents are identical either way.
		for _, i := range offerOrder {
			r.reg.Offer(r.servers[i])
		}
		var got []netsim.NodeID
		for {
			s, ok := r.reg.Pick(r.client.ID())
			if !ok {
				break
			}
			got = append(got, s.ep.ID())
			s.free--
			if len(got) == 3 {
				// Mid-drain churn: the lowest-id server leaves and comes
				// back. Its remaining frames must be picked again, still
				// in id order.
				r.reg.Withdraw(r.servers[0].ep.ID())
				r.reg.Offer(r.servers[0])
			}
		}
		if r.reg.TotalFree() != 0 {
			t.Fatalf("drain left %d free frames", r.reg.TotalFree())
		}
		return got
	}

	want := sequence([]int{0, 1, 2, 3, 4})
	if len(want) != 10 {
		t.Fatalf("drained %d picks, want 10", len(want))
	}
	for i := 1; i < len(want); i++ {
		if want[i] < want[i-1] {
			t.Fatalf("selection not in id order: %v", want)
		}
	}
	for run := 0; run < 20; run++ {
		got := sequence([]int{4, 2, 0, 3, 1})
		if len(got) != len(want) {
			t.Fatalf("run %d: drained %d picks, want %d", run, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("run %d: pick %d chose node %d, want %d", run, i, got[i], want[i])
			}
		}
	}
}
