package am

import (
	"errors"
	"testing"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/sim"
)

func newTestNode(e *sim.Engine, id netsim.NodeID) *node.Node {
	return node.New(e, node.DefaultConfig(id))
}

// TestExactlyOnceUnderLossProperty: across seeds and loss rates, every
// Call eventually succeeds, the handler runs exactly once per distinct
// request, and replies match — the reliability contract the rest of the
// system is built on.
func TestExactlyOnceUnderLossProperty(t *testing.T) {
	for _, loss := range []float64{0.05, 0.2, 0.4} {
		for seed := int64(1); seed <= 4; seed++ {
			loss, seed := loss, seed
			t.Run("", func(t *testing.T) {
				e := sim.NewEngine(seed)
				fcfg := netsim.Myrinet(2)
				fcfg.LossProb = loss
				fab, err := netsim.New(e, fcfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.MaxRetries = 30
				a := NewEndpoint(e, newTestNode(e, 0), fab, cfg)
				b := NewEndpoint(e, newTestNode(e, 1), fab, cfg)
				executions := map[int]int{}
				b.Register(hEcho, func(p *sim.Proc, m Msg) (any, int) {
					i := m.Arg.(int)
					executions[i]++
					return i * 3, 8
				})
				const calls = 150
				ok := 0
				e.Spawn("caller", func(p *sim.Proc) {
					for i := 0; i < calls; i++ {
						got, err := a.Call(p, 1, hEcho, i, 16)
						if err == nil {
							if got != i*3 {
								t.Errorf("call %d: got %v", i, got)
							}
							ok++
						}
					}
					e.Stop()
				})
				if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
					t.Fatal(err)
				}
				if ok != calls {
					t.Fatalf("loss=%.2f seed=%d: %d/%d calls succeeded", loss, seed, ok, calls)
				}
				for i, n := range executions {
					if n != 1 {
						t.Fatalf("request %d executed %d times", i, n)
					}
				}
				if len(executions) != calls {
					t.Fatalf("%d distinct executions for %d calls", len(executions), calls)
				}
			})
		}
	}
}

// TestDetachFailsOutstandingSends: a crashed endpoint must fail its
// pending traffic promptly so orchestration layers unwedge.
func TestDetachFailsOutstandingSends(t *testing.T) {
	e := sim.NewEngine(1)
	fab, err := netsim.New(e, netsim.ATM155(2))
	if err != nil {
		t.Fatal(err)
	}
	a := NewEndpoint(e, newTestNode(e, 0), fab, DefaultConfig())
	NewEndpoint(e, newTestNode(e, 1), fab, DefaultConfig())
	var flushDone sim.Time
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			a.SendAsync(p, 1, hEcho, i, 64<<10)
		}
		a.Flush(p)
		flushDone = p.Now()
		e.Stop()
	})
	e.At(2*sim.Millisecond, func() { a.Detach() })
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	if flushDone == 0 {
		t.Fatal("Flush never returned after Detach")
	}
	if flushDone > 10*sim.Millisecond {
		t.Fatalf("Flush unwedged only at %v", flushDone)
	}
	if a.Stats().Failures == 0 {
		t.Fatal("no failures recorded for the dead endpoint")
	}
	// Sends after detach fail synchronously.
	e2 := sim.NewEngine(1)
	fab2, _ := netsim.New(e2, netsim.ATM155(2))
	c := NewEndpoint(e2, newTestNode(e2, 0), fab2, DefaultConfig())
	NewEndpoint(e2, newTestNode(e2, 1), fab2, DefaultConfig())
	c.Detach()
	var postErr error
	e2.Spawn("s", func(p *sim.Proc) {
		postErr = c.Send(p, 1, hEcho, 1, 8)
		e2.Stop()
	})
	if err := e2.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	if postErr == nil {
		t.Fatal("send from detached endpoint succeeded")
	}
}

// TestAMAtMostOnceOutlivesLaterCalls: a call whose handler runs longer
// than several completion deadlines is probed by retransmissions while
// hundreds of later calls from the same caller settle. Each probe must
// find the call still running in the callee's window and leave the
// handler at one execution; once the slow call settles, the next
// call's watermark lets the callee drop every settled entry.
func TestAMAtMostOnceOutlivesLaterCalls(t *testing.T) {
	e := sim.NewEngine(1)
	_, eps := testNet(t, e, 2, netsim.Myrinet(2), DefaultConfig())
	a, b := eps[0], eps[1]
	const hSlow, hFast HandlerID = 0x70, 0x71
	slowRuns, peak := 0, 0
	b.Register(hSlow, func(p *sim.Proc, m Msg) (any, int) {
		slowRuns++
		p.Sleep(3*completionTimeout + completionTimeout/2)
		peak = b.dedup.Window(0)
		return "slow", 8
	})
	b.Register(hFast, func(p *sim.Proc, m Msg) (any, int) { return m.Arg, 8 })

	var slowRep any
	e.Spawn("slow", func(p *sim.Proc) {
		rep, err := a.Call(p, 1, hSlow, nil, 8)
		if err != nil {
			t.Errorf("slow call: %v", err)
		}
		slowRep = rep
	})
	const procs, perProc = 4, 100 // 400 calls settle while the slow one runs
	for i := 0; i < procs; i++ {
		i := i
		e.Spawn("fast", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond) // the slow call takes the lowest seq
			for n := 0; n < perProc; n++ {
				arg := i*perProc + n
				if rep, err := a.Call(p, 1, hFast, arg, 8); err != nil || rep != arg {
					t.Errorf("fast call %d: reply %v, %v", arg, rep, err)
				}
			}
		})
	}
	e.Spawn("late", func(p *sim.Proc) {
		p.Sleep(4 * completionTimeout)
		if _, err := a.Call(p, 1, hFast, -1, 8); err != nil {
			t.Errorf("late call: %v", err)
		}
		e.Stop()
	})
	if err := e.Run(); !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
	if r := a.Stats().Retries; r < 3 {
		t.Fatalf("slow call retransmitted %d times, want one probe per completion deadline (3)", r)
	}
	if d := b.Stats().Duplicates; d < 3 {
		t.Fatalf("callee suppressed %d duplicates, want the 3 probes", d)
	}
	if peak <= procs*perProc {
		t.Fatalf("callee window peaked at %d entries; the slow call did not hold the floor", peak)
	}
	if slowRuns != 1 || slowRep != "slow" {
		t.Fatalf("slow handler ran %d times, reply %v; want once, \"slow\"", slowRuns, slowRep)
	}
	if n := b.dedup.Window(0); n > 1 {
		t.Fatalf("callee still holds %d entries after every call settled", n)
	}
}
