package collective

import (
	"fmt"
	"testing"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// rigTopo is rig over a Myrinet fabric with a switch topology plugged
// in, plus the in-network plane.
func rigTopo(t testing.TB, e *sim.Engine, n int, topoName string, ccfg Config) (*netsim.Fabric, *Comm, *InNet) {
	t.Helper()
	cfg := netsim.Myrinet(n)
	topo, err := netsim.TopoByName(topoName, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topo = topo
	fab, err := netsim.New(e, cfg)
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
	x, err := NewInNet(c, InNetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return fab, c, x
}

// TestInNetBarrierSynchronises checks the synchronisation property on
// all three topologies: no rank leaves before the last rank enters,
// across repeated barriers (epoch turnover included).
func TestInNetBarrierSynchronises(t *testing.T) {
	for _, topo := range []string{"crossbar", "fattree", "torus"} {
		t.Run(topo, func(t *testing.T) {
			e := sim.NewEngine(1)
			defer e.Close()
			const n, rounds = 18, 3
			_, _, x := rigTopo(t, e, n, topo, DefaultConfig())
			enter := make([][]sim.Time, rounds)
			exit := make([][]sim.Time, rounds)
			for i := range enter {
				enter[i] = make([]sim.Time, n)
				exit[i] = make([]sim.Time, n)
			}
			var procErr error
			for r := 0; r < n; r++ {
				r := r
				e.Spawn("rank", func(p *sim.Proc) {
					for i := 0; i < rounds; i++ {
						// Stagger entry differently per round.
						p.Sleep(sim.Duration((r*7+i*13)%n) * 50 * sim.Microsecond)
						enter[i][r] = p.Now()
						if err := x.Barrier(p, r); err != nil {
							procErr = err
							return
						}
						exit[i][r] = p.Now()
					}
				})
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if procErr != nil {
				t.Fatal(procErr)
			}
			for i := 0; i < rounds; i++ {
				var lastEnter, firstExit sim.Time
				firstExit = sim.MaxTime
				for r := 0; r < n; r++ {
					if enter[i][r] > lastEnter {
						lastEnter = enter[i][r]
					}
					if exit[i][r] < firstExit {
						firstExit = exit[i][r]
					}
				}
				if firstExit < lastEnter {
					t.Fatalf("round %d: a rank left at %v before the last entered at %v", i, firstExit, lastEnter)
				}
			}
		})
	}
}

// TestInNetValuesAcrossTopologies checks broadcast and all-reduce
// payload correctness through the switch combine plane.
func TestInNetValuesAcrossTopologies(t *testing.T) {
	for _, topo := range []string{"crossbar", "fattree", "torus"} {
		t.Run(topo, func(t *testing.T) {
			e := sim.NewEngine(1)
			defer e.Close()
			const n, rounds = 12, 4
			_, _, x := rigTopo(t, e, n, topo, DefaultConfig())
			var procErr error
			fail := func(format string, args ...any) {
				if procErr == nil {
					procErr = fmt.Errorf(format, args...)
				}
			}
			for r := 0; r < n; r++ {
				r := r
				e.Spawn("rank", func(p *sim.Proc) {
					for i := 0; i < rounds; i++ {
						bv, err := x.Broadcast(p, r, 1000+i, 64)
						if err != nil {
							fail("bcast: %v", err)
							return
						}
						if bv.(int) != 1000+i {
							fail("rank %d round %d: broadcast %v", r, i, bv)
							return
						}
						all, err := x.AllReduce(p, r, int64(r+i))
						if err != nil {
							fail("allreduce: %v", err)
							return
						}
						wantAll := int64(n*(n-1)/2 + n*i)
						if all != wantAll {
							fail("rank %d round %d: allreduce %d, want %d", r, i, all, wantAll)
							return
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
		})
	}
}

// TestInNetEpochSkew drives a fast subtree several operations ahead of
// a deliberately slowed one: per-(op, epoch) switch accumulators must
// keep the overlapping operations separate. Rank n-1 (a leaf in its
// own subtree on the fat-tree) sleeps before every operation, so the
// rest of the cluster's injections for epochs k+1, k+2 … pile into the
// switches while epoch k is still incomplete.
func TestInNetEpochSkew(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	const n, rounds = 16, 6
	_, _, x := rigTopo(t, e, n, "fattree", DefaultConfig())
	var procErr error
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				if r == n-1 {
					// Hold the slow subtree back long enough that every
					// other rank has already injected the next epoch.
					p.Sleep(5 * sim.Millisecond)
				}
				total, err := x.AllReduce(p, r, int64(100*i+r))
				if err != nil {
					procErr = err
					return
				}
				want := int64(100*i*n + n*(n-1)/2)
				if total != want {
					procErr = fmt.Errorf("rank %d epoch %d: allreduce %d, want %d", r, i, total, want)
					return
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
}

// TestInNetMetricsAndSpans pins the instrumented surface: per-rank op
// completions, at least one switch combine per op, and one
// innet.combine span per multicast wave, closed at the last delivery.
func TestInNetMetricsAndSpans(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	const n = 8
	r := obs.NewRegistry()
	e.Observe(r)
	_, _, x := rigTopo(t, e, n, "fattree", DefaultConfig())
	x.Instrument(r)
	var procErr error
	for rank := 0; rank < n; rank++ {
		rank := rank
		e.Spawn("rank", func(p *sim.Proc) {
			if err := x.Barrier(p, rank); err != nil {
				procErr = err
				return
			}
			if _, err := x.AllReduce(p, rank, 1); err != nil {
				procErr = err
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}
	snap := r.Snapshot()
	byName := map[string]obs.Metric{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if got := byName["collective.innet.ops"].Value; got != 2*n {
		t.Fatalf("collective.innet.ops = %d, want %d", got, 2*n)
	}
	if got := byName["collective.innet.combines"].Value; got < 2 {
		t.Fatalf("collective.innet.combines = %d, want ≥ 2", got)
	}
	spans := r.Spans()
	open := 0
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
		if s.End == 0 {
			open++
		}
	}
	if names["innet.combine.barrier"] != 1 || names["innet.combine.allreduce"] != 1 {
		t.Fatalf("combine spans = %v", names)
	}
	if open != 0 {
		t.Fatalf("%d combine spans left open", open)
	}
}

// BenchmarkFatTreeBarrier1024 is the in-network counterpart of
// BenchmarkBarrier1024: one switch-combined barrier across 1,024 ranks
// on an 8-ary fat-tree (bench.sh records it in BENCH_sim.json).
func BenchmarkFatTreeBarrier1024(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Close()
	const n = 1024
	_, _, x := rigTopo(b, e, n, "fattree", DefaultConfig())
	rounds := b.N
	var procErr error
	var virtEnd sim.Time
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				if err := x.Barrier(p, r); err != nil {
					procErr = err
					return
				}
			}
			if p.Now() > virtEnd {
				virtEnd = p.Now()
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if procErr != nil {
		b.Fatal(procErr)
	}
	b.ReportMetric(float64(virtEnd)/float64(rounds)/1e3, "virt-µs/op")
}
