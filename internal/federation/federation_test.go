package federation

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/xfs"
)

// testConfig is a three-building federation: two with storage, one
// compute-only, lossy asymmetric WAN available on demand.
func testConfig(workers int, loss float64) Config {
	return Config{
		Clusters: []ClusterConfig{
			{Name: "soda", Workstations: 6, XFSNodes: 6},
			{Name: "cory", Workstations: 6, XFSNodes: 6},
			{Name: "evans", Workstations: 6},
		},
		WAN: WANConfig{
			Latency:       2 * sim.Millisecond,
			BandwidthMbps: 20,
			LossProb:      loss,
			Links: map[[2]int]Link{
				{0, 1}: {Latency: 3 * sim.Millisecond, BandwidthMbps: 10},
			},
		},
		FedFS: FSConfig{FileBlocks: 8, CacheBlocks: 128},
		Spill: SpillConfig{Policy: SpillCostAware, StartEnabled: true, GossipInterval: 200 * sim.Millisecond},
		Seed:  42,
	}
}

// wireWorkload puts cross-cluster traffic on every service: soda writes
// files homed at cory (write leases), cory reads files homed at soda
// (read leases + warm blocks), soda reads back cory's writes (recalls),
// and soda submits a gang too wide for itself (spill-over).
func wireWorkload(f *Federation) {
	soda, cory := f.Cluster(0), f.Cluster(1)
	blk := make([]byte, 8192) // xfs default block size
	for i := range blk {
		blk[i] = byte(i)
	}
	soda.Engine().Spawn("w.soda", func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond)
		for file := xfs.FileID(1); file <= 3; file += 2 { // odd files home at cory
			for b := uint32(0); b < 6; b++ {
				if err := soda.FedFS().Write(p, file, b, blk); err != nil {
					soda.Engine().Fail(fmt.Errorf("soda write: %w", err))
				}
			}
		}
		if err := soda.FedFS().Sync(p); err != nil {
			soda.Engine().Fail(fmt.Errorf("soda sync: %w", err))
		}
	})
	cory.Engine().Spawn("w.cory", func(p *sim.Proc) {
		p.Sleep(20 * sim.Millisecond)
		for file := xfs.FileID(2); file <= 4; file += 2 { // even files home at soda
			for b := uint32(0); b < 6; b++ {
				if err := cory.FedFS().Write(p, file, b, blk); err != nil {
					cory.Engine().Fail(fmt.Errorf("cory seed write: %w", err))
				}
			}
		}
		p.Sleep(400 * sim.Millisecond)
		// Read back what soda wrote to cory-homed files: forces recalls
		// of soda's write leases through cory's reads.
		for file := xfs.FileID(1); file <= 3; file += 2 {
			for r := 0; r < 2; r++ {
				for b := uint32(0); b < 6; b++ {
					if _, err := cory.FedFS().Read(p, file, b); err != nil {
						cory.Engine().Fail(fmt.Errorf("cory read: %w", err))
					}
				}
			}
		}
	})
	// Spill: soda can place at most 6; a 6-wide gang arriving while one
	// is running must queue or spill.
	for i := 0; i < 3; i++ {
		i := i
		soda.Engine().At(sim.Time(600*sim.Millisecond)+sim.Time(i)*sim.Time(50*sim.Millisecond), func() {
			f.Submit(0, JobSpec{ID: 100 + i, NProcs: 6, Work: 2 * sim.Second, Grain: 100 * sim.Millisecond})
		})
	}
}

// runFingerprint runs the workload federation and returns a stable byte
// fingerprint: the merged metrics export plus per-cluster job stats.
func runFingerprint(t *testing.T, workers int, loss float64) []byte {
	t.Helper()
	f, err := New(testConfig(workers, loss))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wireWorkload(f)
	if err := f.Run(sim.Time(8 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteStable(&buf, f.Merged().Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.Clusters(); i++ {
		c := f.Cluster(i)
		if c.GL != nil {
			fmt.Fprintf(&buf, "%s %+v\n", c.Name(), c.GL.Master.Stats())
		}
	}
	return buf.Bytes()
}

// TestFederatedDeterminismAcrossWorkers: clusters are the partitions —
// workers are execution-only, so every worker count and every repeat
// must produce byte-identical results.
func TestFederatedDeterminismAcrossWorkers(t *testing.T) {
	base := runFingerprint(t, 1, 0)
	if len(base) == 0 {
		t.Fatal("empty fingerprint")
	}
	for _, w := range []int{1, 2, 4} {
		got := runFingerprint(t, w, 0)
		if !bytes.Equal(base, got) {
			t.Fatalf("workers=%d diverged from workers=1:\n%s\n---\n%s", w, base, got)
		}
	}
}

// TestFederatedDeterminismUnderLoss: same property with WAN loss and
// the retry machinery active.
func TestFederatedDeterminismUnderLoss(t *testing.T) {
	base := runFingerprint(t, 1, 0.05)
	for _, w := range []int{2, 4} {
		if got := runFingerprint(t, w, 0.05); !bytes.Equal(base, got) {
			t.Fatalf("workers=%d diverged under loss", w)
		}
	}
}

// TestLeaseRecallUnderRetryChurn: two clusters ping-pong writes on one
// file over a lossy WAN. Every write must land (recall-before-
// conflicting-write), recalls and retries must both fire, and the home
// copy must end at the last writer's data.
func TestLeaseRecallUnderRetryChurn(t *testing.T) {
	cfg := Config{
		Clusters: []ClusterConfig{
			{Name: "home", XFSNodes: 6},
			{Name: "away", XFSNodes: 6},
		},
		WAN:   WANConfig{Latency: sim.Millisecond, BandwidthMbps: 45, LossProb: 0.15},
		FedFS: FSConfig{FileBlocks: 4, CacheBlocks: 64},
		Seed:  7,
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	home, away := f.Cluster(0), f.Cluster(1)
	const file = xfs.FileID(2) // homes at cluster 0
	mk := func(tag byte, round int) []byte {
		b := make([]byte, 8192)
		for i := range b {
			b[i] = tag ^ byte(round)
		}
		return b
	}
	const rounds = 6
	// Interleave by time: away writes at odd 10ms ticks, home at even.
	away.Engine().Spawn("away", func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			p.Sleep(20 * sim.Millisecond)
			if err := away.FedFS().Write(p, file, 0, mk('A', r)); err != nil {
				t.Errorf("away write %d: %v", r, err)
			}
		}
		if err := away.FedFS().Sync(p); err != nil {
			t.Errorf("away sync: %v", err)
		}
	})
	home.Engine().Spawn("home", func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			p.Sleep(23 * sim.Millisecond)
			if err := home.FedFS().Write(p, file, 0, mk('H', r)); err != nil {
				t.Errorf("home write %d: %v", r, err)
			}
		}
		// Home's own last write (at 23ms ticks) lands after away's (at
		// 20ms ticks), and every home write recalls away's lease first
		// — so after the churn settles the authoritative copy is home's
		// final round, with away's rounds forced through the write-back
		// barrier in between.
		p.Sleep(2 * sim.Second)
		got, err := home.FedFS().Read(p, file, 0)
		if err != nil {
			t.Errorf("final read: %v", err)
			return
		}
		want := mk('H', rounds-1)
		if !bytes.Equal(got, want) {
			t.Errorf("home copy = %x..., want %x...", got[:4], want[:4])
		}
	})
	if err := f.Run(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	snap := f.Merged()
	recalls, _ := snap.CounterValue("fed.lease.recalls")
	if recalls == 0 {
		t.Error("no lease recalls despite conflicting writers")
	}
	retries, _ := snap.CounterValue("wan.call.retries")
	drops, _ := snap.CounterValue("wan.drops")
	if drops == 0 || retries == 0 {
		t.Errorf("churn not exercised: drops=%d retries=%d", drops, retries)
	}
	wbs, _ := snap.CounterValue("fed.lease.writeback.blocks")
	if wbs == 0 {
		t.Error("no write-back blocks crossed the WAN")
	}
}

// TestSpillPlacementDecisions drives the placer's decision table
// directly: policy, peer idleness and the cost model each gate a spill.
func TestSpillPlacementDecisions(t *testing.T) {
	build := func(policy SpillPolicy) (*Federation, *spiller) {
		cfg := testConfig(1, 0)
		cfg.Spill = SpillConfig{Policy: policy, StartEnabled: true}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		return f, f.Cluster(0).sp
	}

	t.Run("local-when-idle-capacity", func(t *testing.T) {
		_, sp := build(SpillCostAware)
		sp.peers[1] = peerState{idle: 6}
		sp.place(JobSpec{ID: 1, NProcs: 2, Work: sim.Second})
		if got := sp.m.shipped.Value(); got != 0 {
			t.Fatalf("shipped %d jobs with local capacity free", got)
		}
		if sp.m.kept.Value() != 1 {
			t.Fatal("job not kept locally")
		}
	})

	t.Run("no-peer-wide-enough", func(t *testing.T) {
		_, sp := build(SpillWhenIdle)
		sp.peers[1] = peerState{idle: 2}
		sp.peers[2] = peerState{idle: 3}
		sp.place(JobSpec{ID: 2, NProcs: 30, Work: sim.Second})
		if sp.m.shipped.Value() != 0 {
			t.Fatal("shipped a gang no peer can hold")
		}
	})

	t.Run("when-idle-ships-regardless-of-cost", func(t *testing.T) {
		_, sp := build(SpillWhenIdle)
		sp.peers[1] = peerState{idle: 6}
		// NProcs beyond every peer's capacity: stays local even when idle.
		sp.place(JobSpec{ID: 3, NProcs: 30, Work: sim.Nanosecond})
		if sp.m.shipped.Value() != 0 {
			t.Fatal("shipped past peer capacity")
		}
		// The 30-wide gang is now stuck in the local queue; a 6-wide
		// arrival sees the backlog and ships even though 6 machines are
		// instantaneously idle (placement is FCFS — it would wait).
		sp.place(JobSpec{ID: 4, NProcs: 6, Work: sim.Nanosecond})
		if sp.m.shipped.Value() != 1 {
			t.Fatalf("when-idle shipped %d behind a stuck queue, want 1", sp.m.shipped.Value())
		}
		sp.peers[1] = peerState{idle: 40}
		sp.place(JobSpec{ID: 5, NProcs: 12, Work: sim.Nanosecond})
		if sp.m.shipped.Value() != 2 {
			t.Fatalf("when-idle shipped %d, want 2", sp.m.shipped.Value())
		}
	})

	t.Run("cost-aware-keeps-cheap-queue", func(t *testing.T) {
		_, sp := build(SpillCostAware)
		sp.peers[1] = peerState{idle: 40}
		// Local queue empty → local wait 0 → remote can never undercut.
		sp.place(JobSpec{ID: 6, NProcs: 12, Work: sim.Second})
		if sp.m.shipped.Value() != 0 {
			t.Fatal("cost-aware shipped against a free local queue")
		}
	})

	t.Run("cost-aware-ships-past-long-queue", func(t *testing.T) {
		f, sp := build(SpillCostAware)
		sp.peers[1] = peerState{idle: 40}
		// Stuff the local queue so the modelled wait dwarfs the WAN
		// transfer (image 32 MiB ×12 at 20 Mb/s ≈ 161 s... too big —
		// long jobs make the local wait still longer).
		for i := 0; i < 8; i++ {
			f.Cluster(0).GL.Master.Submit(mkJob(1000+i, 6, sim.Hour))
		}
		sp.place(JobSpec{ID: 7, NProcs: 12, Work: sim.Hour})
		if sp.m.shipped.Value() != 1 {
			t.Fatalf("cost-aware kept a job behind an 8-hour queue (shipped=%d)", sp.m.shipped.Value())
		}
	})

	t.Run("deterministic-tie-break-lowest-id", func(t *testing.T) {
		f, sp := build(SpillWhenIdle)
		sp.peers[2] = peerState{idle: 40}
		sp.peers[1] = peerState{idle: 40}
		for i := 0; i < 4; i++ {
			f.Cluster(0).GL.Master.Submit(mkJob(2000+i, 6, sim.Hour))
		}
		sp.place(JobSpec{ID: 8, NProcs: 12, Work: sim.Hour})
		if sp.m.shipped.Value() != 1 {
			t.Fatal("no spill")
		}
		// Symmetric default links: cluster 1 and 2 cost the same from
		// cluster 0? Link 0→1 is overridden slower in testConfig, so
		// the cheaper cluster 2 must win.
		if got := sp.peers[1]; got.idle != 40 {
			t.Fatal("peer table mutated")
		}
	})
}

func mkJob(id, nprocs int, work sim.Duration) *glunix.Job {
	return glunix.NewJob(id, nprocs, work, 100*sim.Millisecond)
}

// TestErrUnsupportedShardingFederation: a zero-latency WAN link gives
// the engine no lookahead window; New must reject it with the typed
// sentinel shared with netsim.
func TestErrUnsupportedShardingFederation(t *testing.T) {
	cfg := testConfig(1, 0)
	cfg.WAN.Links = map[[2]int]Link{}
	cfg.WAN.Latency = 0
	cfg.WAN.BandwidthMbps = 45
	_, err := New(cfg)
	if err == nil {
		t.Fatal("zero-latency WAN accepted")
	}
	if !errors.Is(err, netsim.ErrUnsupportedSharding) {
		t.Fatalf("error %v does not wrap netsim.ErrUnsupportedSharding", err)
	}
}

// TestWANAsymmetricLinks: per-direction overrides must price each
// direction independently.
func TestWANAsymmetricLinks(t *testing.T) {
	f, err := New(testConfig(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := f.WAN()
	if w.links[0][1].Latency != 3*sim.Millisecond || w.links[1][0].Latency != 2*sim.Millisecond {
		t.Fatalf("override leaked across directions: %v / %v", w.links[0][1].Latency, w.links[1][0].Latency)
	}
	if s01, s10 := w.Ser(0, 1, 1<<20), w.Ser(1, 0, 1<<20); s01 <= s10 {
		t.Fatalf("10 Mb/s direction not slower than 20 Mb/s: %v vs %v", s01, s10)
	}
}

// TestWANAtMostOnceOutlivesLaterCalls: a call whose handler outlasts
// several of the caller's timeouts is retried while more than 4,096
// later calls from the same caller come and go. The retries must still
// find the call in the callee's window and leave the handler at one
// execution; once the slow call settles, the next call's watermark
// lets the callee drop every settled entry.
//
// The link derives a ~1.4 ms first timeout (2×RTT + serialization +
// 1 ms grace), doubling per attempt: attempts expire at ~1.4, 4.2,
// 9.8, 21, 43, 88 and 178 ms, so the 150 ms handler's reply lands in
// the seventh of the eight attempts.
func TestWANAtMostOnceOutlivesLaterCalls(t *testing.T) {
	f, err := New(Config{
		Clusters: []ClusterConfig{{Name: "a"}, {Name: "b"}},
		WAN: WANConfig{
			Latency:       100 * sim.Microsecond,
			BandwidthMbps: 1000,
			CallRetries:   8,
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const hSlow, hFast = 0xf0, 0xf1
	slowRuns := 0
	b := f.Cluster(1).Gateway()
	b.HandleCall(hSlow, func(p *sim.Proc, from int, arg any) (any, int) {
		slowRuns++
		p.Sleep(150 * sim.Millisecond)
		return "slow", 8
	})
	b.HandleCall(hFast, func(p *sim.Proc, from int, arg any) (any, int) { return nil, 0 })

	a := f.Cluster(0)
	call := func(p *sim.Proc, h uint8) any {
		rep, err := a.Gateway().Call(p, 1, h, nil, 8, 8)
		if err != nil {
			a.Engine().Fail(err)
		}
		return rep
	}
	var slowRep any
	a.Engine().Spawn("slow", func(p *sim.Proc) { slowRep = call(p, hSlow) })
	const procs, perProc = 20, 256 // 5,120 calls settle before the last retry
	for i := 0; i < procs; i++ {
		a.Engine().Spawn(fmt.Sprintf("fast%d", i), func(p *sim.Proc) {
			for n := 0; n < perProc; n++ {
				call(p, hFast)
			}
		})
	}
	a.Engine().Spawn("late", func(p *sim.Proc) {
		p.Sleep(200 * sim.Millisecond)
		call(p, hFast)
	})
	if err := f.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if retries, _ := f.Registry(0).CounterValue("wan.call.retries"); retries == 0 {
		t.Fatal("slow call was never retried: the test exercises nothing")
	}
	if slowRuns != 1 || slowRep != "slow" {
		t.Fatalf("slow handler ran %d times, reply %v; want once, \"slow\"", slowRuns, slowRep)
	}
	if n := b.callee.Window(0); n > 1 {
		t.Fatalf("callee still caches %d entries after every call settled", n)
	}
}

// TestWANExactlyOnceUnderLossProperty: across loss rates and seeds,
// with a retry budget deep enough that no call gives up, every WAN
// call succeeds, its handler runs exactly once, and the reply matches
// — AM's TestExactlyOnceUnderLossProperty over the gateways.
func TestWANExactlyOnceUnderLossProperty(t *testing.T) {
	for _, loss := range []float64{0.05, 0.2} {
		for seed := int64(1); seed <= 4; seed++ {
			f, err := New(Config{
				Clusters: []ClusterConfig{{Name: "a"}, {Name: "b"}},
				WAN: WANConfig{
					Latency:       sim.Millisecond,
					BandwidthMbps: 45,
					LossProb:      loss,
					CallRetries:   16,
				},
				Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			const hEcho = 0xf2
			executions := map[int]int{}
			f.Cluster(1).Gateway().HandleCall(hEcho, func(p *sim.Proc, from int, arg any) (any, int) {
				executions[arg.(int)]++
				return arg.(int) * 3, 8
			})
			a := f.Cluster(0)
			const procs, perProc = 4, 40
			ok, done := 0, 0
			for i := 0; i < procs; i++ {
				i := i
				a.Engine().Spawn(fmt.Sprintf("caller%d", i), func(p *sim.Proc) {
					for n := 0; n < perProc; n++ {
						arg := i*perProc + n
						rep, err := a.Gateway().Call(p, 1, hEcho, arg, 16, 8)
						if err == nil && rep == arg*3 {
							ok++
						} else {
							t.Errorf("loss=%.2f seed=%d call %d: reply %v, %v", loss, seed, arg, rep, err)
						}
					}
					if done++; done == procs {
						a.Engine().Stop()
					}
				})
			}
			if err := f.Run(sim.Time(600 * sim.Second)); !errors.Is(err, sim.ErrStopped) {
				t.Fatalf("loss=%.2f seed=%d: run ended with %v before every call returned", loss, seed, err)
			}
			f.Close()
			if ok != procs*perProc || len(executions) != procs*perProc {
				t.Fatalf("loss=%.2f seed=%d: %d/%d calls succeeded, %d distinct executions",
					loss, seed, ok, procs*perProc, len(executions))
			}
			for arg, n := range executions {
				if n != 1 {
					t.Fatalf("loss=%.2f seed=%d: call %d executed %d times", loss, seed, arg, n)
				}
			}
			if r, _ := f.Registry(0).CounterValue("wan.call.retries"); r == 0 {
				t.Fatalf("loss=%.2f seed=%d: no retries under loss: the test exercises nothing", loss, seed)
			}
		}
	}
}
