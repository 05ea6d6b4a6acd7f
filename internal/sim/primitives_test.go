package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestResourceSerialisesContention(t *testing.T) {
	e := NewEngine(1)
	disk := NewResource(e, "disk", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("io%d", i), func(p *Proc) {
			disk.Use(p, 1, 10*Millisecond)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityAllowsParallelism(t *testing.T) {
	e := NewEngine(1)
	cpus := NewResource(e, "cpus", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Spawn("job", func(p *Proc) {
			cpus.Use(p, 1, 10*Millisecond)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two run 0–10ms, two run 10–20ms.
	if finish[0] != 10*Millisecond || finish[1] != 10*Millisecond ||
		finish[2] != 20*Millisecond || finish[3] != 20*Millisecond {
		t.Fatalf("finish = %v", finish)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Sleep(Duration(i) * Microsecond) // arrive in index order
			r.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(10 * Microsecond)
			r.Release(1)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestResourceAcquireTimeout(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	var got bool
	var at Time
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(100 * Microsecond)
		r.Release(1)
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		got = r.AcquireTimeout(p, 1, 20*Microsecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("AcquireTimeout should have timed out")
	}
	if at != 21*Microsecond {
		t.Fatalf("timed out at %v, want 21µs", at)
	}
	if r.inUse != 0 {
		t.Fatalf("in use = %d after run", r.inUse)
	}
}

func TestResourceAcquireTimeoutSucceedsWithinDeadline(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	var got bool
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10 * Microsecond)
		r.Release(1)
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		got = r.AcquireTimeout(p, 1, 50*Microsecond)
		if got {
			r.Release(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("acquire should have succeeded before the deadline")
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	e.Spawn("p", func(p *Proc) {
		r.Use(p, 1, 30*Microsecond)
		p.Sleep(70 * Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if u := r.Utilization(); u < 0.29 || u > 0.31 {
		t.Fatalf("utilization = %v, want ≈0.30", u)
	}
}

func TestResourceMisuseFailsRun(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	e.Spawn("p", func(p *Proc) {
		r.Release(1) // release without acquire
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected invariant failure")
	}
}

func TestMailboxDeliversFIFO(t *testing.T) {
	e := NewEngine(1)
	mb := NewMailbox[int](e, "mb")
	var got []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Get(p))
		}
	})
	e.Spawn("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			mb.Put(i)
			p.Sleep(Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestMailboxBlocksUntilPut(t *testing.T) {
	e := NewEngine(1)
	mb := NewMailbox[string](e, "mb")
	var at Time
	e.Spawn("recv", func(p *Proc) {
		mb.Get(p)
		at = p.Now()
	})
	e.Spawn("send", func(p *Proc) {
		p.Sleep(99 * Microsecond)
		mb.Put("x")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 99*Microsecond {
		t.Fatalf("received at %v", at)
	}
}

func TestMailboxGetTimeout(t *testing.T) {
	e := NewEngine(1)
	mb := NewMailbox[int](e, "mb")
	var ok bool
	var at Time
	e.Spawn("recv", func(p *Proc) {
		_, ok = mb.GetTimeout(p, 10*Microsecond)
		at = p.Now()
	})
	e.Spawn("send", func(p *Proc) {
		p.Sleep(50 * Microsecond)
		mb.Put(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("expected timeout")
	}
	if at != 10*Microsecond {
		t.Fatalf("timed out at %v", at)
	}
	if mb.Len() != 1 {
		t.Fatalf("item should remain queued, len=%d", mb.Len())
	}
}

func TestMailboxTimeoutNotFiredOnDelivery(t *testing.T) {
	e := NewEngine(1)
	mb := NewMailbox[int](e, "mb")
	var v int
	var ok bool
	e.Spawn("recv", func(p *Proc) {
		v, ok = mb.GetTimeout(p, 100*Microsecond)
	})
	e.Spawn("send", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		mb.Put(7)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || v != 7 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
}

func TestMailboxTryGet(t *testing.T) {
	e := NewEngine(1)
	mb := NewMailbox[int](e, "mb")
	if _, ok := mb.TryGet(); ok {
		t.Fatal("TryGet on empty succeeded")
	}
	mb.Put(9)
	if v, ok := mb.TryGet(); !ok || v != 9 {
		t.Fatalf("TryGet = (%d,%v)", v, ok)
	}
	e.Close()
}

func TestMailboxMultipleWaitersFIFO(t *testing.T) {
	e := NewEngine(1)
	mb := NewMailbox[int](e, "mb")
	var got []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("r%d", i)
		e.Spawn(name, func(p *Proc) {
			v := mb.Get(p)
			got = append(got, fmt.Sprintf("%s=%d", name, v))
		})
	}
	e.Spawn("send", func(p *Proc) {
		p.Sleep(Microsecond)
		for i := 1; i <= 4; i++ {
			mb.Put(i)
		}
		// The first three values went to the woken receivers, which
		// have not run yet; only the fourth is left to take.
		if v, ok := mb.TryGet(); !ok || v != 4 {
			t.Errorf("TryGet after handoffs = %d, %v; want 4, true", v, ok)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[r0=1 r1=2 r2=3]" {
		t.Fatalf("got %v", got)
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	e := NewEngine(1)
	sig := NewSignal(e, "go")
	woke := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			sig.Wait(p)
			woke++
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		if sig.waiters.len() != 5 {
			t.Errorf("waiting = %d", sig.waiters.len())
		}
		sig.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5 {
		t.Fatalf("woke = %d", woke)
	}
}

func TestSignalFireWakesOne(t *testing.T) {
	e := NewEngine(1)
	sig := NewSignal(e, "one")
	woke := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			sig.Wait(p)
			woke++
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(Microsecond)
		sig.Fire()
		p.Sleep(Microsecond)
		if woke != 1 {
			t.Errorf("after one Fire, woke = %d", woke)
		}
		sig.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3 {
		t.Fatalf("woke = %d", woke)
	}
}

func TestSignalWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	sig := NewSignal(e, "never")
	var ok bool
	e.Spawn("w", func(p *Proc) {
		ok = sig.WaitTimeout(p, 30*Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("expected timeout")
	}
	if sig.waiters.len() != 0 {
		t.Fatal("timed-out waiter not removed")
	}
}

func TestWaitGroupBarrier(t *testing.T) {
	e := NewEngine(1)
	wg := NewWaitGroup(e, "barrier")
	wg.Add(3)
	var done Time
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		done = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := Duration(i*10) * Microsecond
		e.Spawn("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 30*Microsecond {
		t.Fatalf("barrier released at %v, want 30µs", done)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	e := NewEngine(1)
	wg := NewWaitGroup(e, "zero")
	passed := false
	e.Spawn("w", func(p *Proc) {
		wg.Wait(p)
		passed = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !passed {
		t.Fatal("Wait on zero WaitGroup blocked")
	}
}

// Property: for any set of jobs with positive durations on a capacity-1
// resource, total busy time equals the sum of durations and the last
// completion equals that sum (work conservation, no overlap).
func TestResourceWorkConservationProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 50 {
			return true
		}
		e := NewEngine(1)
		r := NewResource(e, "r", 1)
		var last Time
		var sum Duration
		for _, d := range durs {
			d := Duration(d%1000+1) * Microsecond
			sum += d
			e.Spawn("j", func(p *Proc) {
				r.Use(p, 1, d)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return last == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a mailbox delivers every value exactly once, in FIFO order,
// regardless of put/get interleaving.
func TestMailboxExactlyOnceProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		n := len(gaps)
		if n == 0 || n > 64 {
			return true
		}
		e := NewEngine(1)
		mb := NewMailbox[int](e, "mb")
		var got []int
		e.Spawn("recv", func(p *Proc) {
			for i := 0; i < n; i++ {
				got = append(got, mb.Get(p))
			}
		})
		e.Spawn("send", func(p *Proc) {
			for i, g := range gaps {
				p.Sleep(Duration(g) * Microsecond)
				mb.Put(i)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWaitsDoNotAllocate pins the allocation-free wait queues: in
// steady state a blocking Mailbox round trip and a Signal wait/fire
// cycle between two processes allocate nothing.
func TestWaitsDoNotAllocate(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	req, rsp := NewMailbox[int](e, "req"), NewMailbox[int](e, "rsp")
	ping, pong := NewSignal(e, "ping"), NewSignal(e, "pong")
	stop := false
	e.Spawn("server", func(p *Proc) {
		for {
			rsp.Put(req.Get(p) + 1)
			ping.Wait(p)
			pong.Fire()
		}
	})
	e.Spawn("client", func(p *Proc) {
		for i := 0; !stop; i++ {
			req.Put(i)
			if got := rsp.Get(p); got != i+1 {
				t.Errorf("round trip %d returned %d", i, got)
				return
			}
			ping.Fire()
			pong.Wait(p)
			p.Sleep(Microsecond)
		}
	})
	// Run past the spawns (which allocate the procs) into steady state.
	if err := e.RunUntil(e.Now() + 10*Microsecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.RunUntil(e.Now() + 20*Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	stop = true
	if allocs != 0 {
		t.Fatalf("Mailbox/Signal waits allocated %.2f times per 20 round trips, want 0", allocs)
	}
}
