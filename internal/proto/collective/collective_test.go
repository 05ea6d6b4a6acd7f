package collective

import (
	"bytes"
	"errors"
	"testing"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// rig builds n nodes with AM endpoints on a Myrinet fabric and a
// communicator over them.
func rig(t testing.TB, e *sim.Engine, n int, ccfg Config) (*netsim.Fabric, []*am.Endpoint, *Comm) {
	t.Helper()
	fab, err := netsim.New(e, netsim.Myrinet(n))
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*am.Endpoint, n)
	for i := 0; i < n; i++ {
		nd := node.New(e, node.DefaultConfig(netsim.NodeID(i)))
		eps[i] = am.NewEndpoint(e, nd, fab, am.DefaultConfig())
	}
	c, err := New(e, eps, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return fab, eps, c
}

func TestBarrierSynchronises(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	_, _, c := rig(t, e, 10, Config{Arity: 3})
	enter := make([]sim.Time, 10)
	exit := make([]sim.Time, 10)
	var procErr error
	for r := 0; r < 10; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			// Stagger entry so the barrier actually has to hold early
			// arrivals back.
			p.Sleep(sim.Duration(r) * 100 * sim.Microsecond)
			enter[r] = p.Now()
			if err := c.Barrier(p, r); err != nil {
				procErr = err
			}
			exit[r] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}
	var lastEnter, firstExit sim.Time
	firstExit = sim.MaxTime
	for r := 0; r < 10; r++ {
		if enter[r] > lastEnter {
			lastEnter = enter[r]
		}
		if exit[r] < firstExit {
			firstExit = exit[r]
		}
	}
	if firstExit < lastEnter {
		t.Fatalf("a rank left the barrier at %v before the last rank entered at %v", firstExit, lastEnter)
	}
}

func TestBroadcastDeliversRootValue(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	_, _, c := rig(t, e, 9, Config{Arity: 2})
	const rounds = 3
	got := make([][]any, 9)
	var procErr error
	for r := 0; r < 9; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				v, err := c.Broadcast(p, r, 100+i, 8)
				if err != nil {
					procErr = err
					return
				}
				got[r] = append(got[r], v)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}
	for r := 0; r < 9; r++ {
		if len(got[r]) != rounds {
			t.Fatalf("rank %d finished %d/%d broadcasts", r, len(got[r]), rounds)
		}
		for i, v := range got[r] {
			if v != 100+i {
				t.Fatalf("rank %d round %d got %v, want %d", r, i, v, 100+i)
			}
		}
	}
}

func TestReduceSumsContributions(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	const n = 13
	_, _, c := rig(t, e, n, DefaultConfig())
	const rounds = 3
	var totals []int64
	var procErr error
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				total, root, err := c.Reduce(p, r, int64(r+1))
				if err != nil {
					procErr = err
					return
				}
				if root {
					totals = append(totals, total)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}
	if len(totals) != rounds {
		t.Fatalf("root saw %d totals, want %d", len(totals), rounds)
	}
	for i, total := range totals {
		if total != n*(n+1)/2 {
			t.Fatalf("round %d total = %d, want %d", i, total, n*(n+1)/2)
		}
	}
}

// allReduce is Reduce followed by a Broadcast of the total, so every
// rank returns the global sum.
func allReduce(p *sim.Proc, c *Comm, rank int, v int64) (int64, error) {
	total, _, err := c.Reduce(p, rank, v)
	if err != nil {
		return 0, err
	}
	out, err := c.Broadcast(p, rank, total, c.cfg.ElemBytes)
	if err != nil {
		return 0, err
	}
	return out.(int64), nil
}

func TestAllReduceGivesEveryRankTheTotal(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	const n = 7
	_, _, c := rig(t, e, n, DefaultConfig())
	got := make([]int64, n)
	var procErr error
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			v, err := allReduce(p, c, r, int64(1<<r))
			if err != nil {
				procErr = err
				return
			}
			got[r] = v
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}
	for r, v := range got {
		if v != (1<<n)-1 {
			t.Fatalf("rank %d got %d, want %d", r, v, (1<<n)-1)
		}
	}
}

func TestAllToAllExchangesEveryPair(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	const n = 8
	_, eps, c := rig(t, e, n, DefaultConfig())
	doneRounds := make([]int, n)
	var procErr error
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				if err := c.AllToAll(p, r, 1024); err != nil {
					procErr = err
					return
				}
				doneRounds[r]++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}
	for r, d := range doneRounds {
		if d != 2 {
			t.Fatalf("rank %d completed %d/2 exchanges", r, d)
		}
	}
	for r, ep := range eps {
		if f := ep.Stats().Failures; f != 0 {
			t.Fatalf("rank %d: %d failures", r, f)
		}
	}
}

func TestAllToAllFailsWhenPeerUnreachable(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	const n = 4
	fab, _, c := rig(t, e, n, DefaultConfig())
	fab.Partition([]netsim.NodeID{3}) // rank 3 unreachable
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			errs[r] = c.AllToAll(p, r, 256)
		})
	}
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) && err != nil {
		t.Fatal(err)
	}
	// Rank 0 cannot reach rank 3; its exchange must report failed
	// sends rather than hang (the engine drains because every rank
	// either errors out or parks forever and the run hits quiescence...
	// which it cannot while retries pend — so bound the run).
	if errs[0] == nil {
		t.Fatal("rank 0 exchange succeeded across a partition")
	}
}

// collectiveScenario runs a fixed workload (barriers, broadcasts,
// reduces, one all-to-all) on n ranks and returns the byte-stable
// metrics export.
func collectiveScenario(t testing.TB, n int) []byte {
	e := sim.NewEngine(42)
	defer e.Close()
	reg := obs.NewRegistry()
	e.Observe(reg)
	fab, eps, c := func() (*netsim.Fabric, []*am.Endpoint, *Comm) {
		fab, err := netsim.New(e, netsim.Myrinet(n))
		if err != nil {
			t.Fatal(err)
		}
		eps := make([]*am.Endpoint, n)
		for i := 0; i < n; i++ {
			nd := node.New(e, node.DefaultConfig(netsim.NodeID(i)))
			eps[i] = am.NewEndpoint(e, nd, fab, am.DefaultConfig())
		}
		c, err := New(e, eps, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return fab, eps, c
	}()
	fab.Instrument(reg)
	c.Instrument(reg)
	_ = eps
	var procErr error
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				if err := c.Barrier(p, r); err != nil {
					procErr = err
					return
				}
			}
			if _, err := allReduce(p, c, r, int64(r)); err != nil {
				procErr = err
				return
			}
			if err := c.AllToAll(p, r, 512); err != nil {
				procErr = err
				return
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}
	var buf bytes.Buffer
	if err := reg.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterminismGolden32 and ...128 are the collective goldens: the
// same seed must give a byte-identical metrics export, so any hidden
// map-order or wall-clock dependence in the collective layer (or the
// fabric under it) shows up as a diff.
func TestDeterminismGolden32(t *testing.T) {
	a := collectiveScenario(t, 32)
	b := collectiveScenario(t, 32)
	if !bytes.Equal(a, b) {
		t.Fatal("32-rank collective run is not byte-deterministic")
	}
}

func TestDeterminismGolden128(t *testing.T) {
	a := collectiveScenario(t, 128)
	b := collectiveScenario(t, 128)
	if !bytes.Equal(a, b) {
		t.Fatal("128-rank collective run is not byte-deterministic")
	}
}

// TestBarrier1024NoOverflows is the AM-level scale gate: a 1,024-node
// barrier must complete with zero receive-buffer overflows under the
// default window — the k-ary gather bounds each node's in-flight
// arrivals to its child count plus protocol acks, far below
// BufferSlots.
func TestBarrier1024NoOverflows(t *testing.T) {
	if testing.Short() {
		t.Skip("1,024-node barrier in -short mode")
	}
	e := sim.NewEngine(7)
	defer e.Close()
	const n = 1024
	_, eps, c := rig(t, e, n, DefaultConfig())
	var procErr error
	done := 0
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				if err := c.Barrier(p, r); err != nil {
					procErr = err
					return
				}
			}
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}
	if done != n {
		t.Fatalf("%d/%d ranks finished", done, n)
	}
	for r, ep := range eps {
		if o := ep.Stats().Overflows; o != 0 {
			t.Fatalf("rank %d overflowed %d arrivals", r, o)
		}
	}
}

func TestTreeDepthAndPredictions(t *testing.T) {
	if d := TreeDepth(1024, 4); d != 5 {
		t.Fatalf("depth(1024, 4) = %d, want 5", d)
	}
	if d := TreeDepth(2, 4); d != 1 {
		t.Fatalf("depth(2, 4) = %d, want 1", d)
	}
	acfg := am.DefaultConfig()
	fcfg := netsim.Myrinet(64)
	if PredictBarrier(acfg, fcfg, 64, 4) <= 0 {
		t.Fatal("barrier prediction not positive")
	}
	if PredictAllToAll(acfg, fcfg, 64, 1024) <= PredictAllToAll(acfg, fcfg, 32, 1024) {
		t.Fatal("all-to-all prediction does not grow with n")
	}
}
