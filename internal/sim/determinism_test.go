package sim

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"
)

// scheduleHash drives a workload that exercises every scheduling path —
// timers, cancellations, same-time run queue, heap, mailbox grants and
// timeouts, resource contention, signal broadcast — and folds the full
// (time, pid, tag) dispatch trace into a hash. Identical seeds must give
// identical schedules; this is the engine's determinism contract stated
// as a regression test.
func scheduleHash(t *testing.T, seed int64) uint64 {
	t.Helper()
	e := NewEngine(seed)
	h := fnv.New64a()
	mark := func(p *Proc, tag string) {
		fmt.Fprintf(h, "%d|%d|%s;", int64(p.Now()), p.id, tag)
	}
	mbox := NewMailbox[int](e, "m")
	res := NewResource(e, "r", 2)
	sig := NewSignal(e, "s")
	for i := 0; i < 8; i++ {
		e.Spawn("worker", func(p *Proc) {
			for j := 0; j < 20; j++ {
				d := Duration(e.Rand().Intn(50)) * Microsecond
				p.Sleep(d)
				mark(p, "slept")
				res.Use(p, 1+e.Rand().Intn(2), Duration(e.Rand().Intn(10))*Microsecond)
				mark(p, "used")
				if e.Rand().Intn(3) == 0 {
					p.Yield()
					mark(p, "yielded")
				}
				if v, ok := mbox.GetTimeout(p, 5*Microsecond); ok {
					mark(p, fmt.Sprintf("got%d", v))
				} else {
					mark(p, "timeout")
				}
			}
		})
	}
	e.Spawn("producer", func(p *Proc) {
		for j := 0; j < 60; j++ {
			p.Sleep(Duration(e.Rand().Intn(30)) * Microsecond)
			mbox.Put(j)
			if j%10 == 0 {
				sig.Broadcast()
			}
		}
	})
	e.Spawn("waiter", func(p *Proc) {
		for j := 0; j < 5; j++ {
			if sig.WaitTimeout(p, 200*Microsecond) {
				mark(p, "signalled")
			} else {
				mark(p, "sig-timeout")
			}
		}
	})
	// Timer churn: schedule-and-cancel alongside the real workload so
	// cancelled pool events interleave with live ones.
	var cancelled Timer
	for i := 0; i < 50; i++ {
		tm := e.At(Duration(e.Rand().Intn(1000))*Microsecond, func() {})
		if i%2 == 0 {
			tm.Stop()
			cancelled = tm
		}
	}
	_ = cancelled
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "end@%d", int64(e.Now()))
	return h.Sum64()
}

func TestScheduleHashDeterministic(t *testing.T) {
	a := scheduleHash(t, 42)
	b := scheduleHash(t, 42)
	if a != b {
		t.Fatalf("same seed produced different schedules: %x vs %x", a, b)
	}
	if c := scheduleHash(t, 43); c == a {
		t.Fatal("different seeds produced identical schedule (suspicious)")
	}
}

// TestTimerABAAfterRecycle pins the generation-counter contract: a Timer
// whose event has fired and been recycled for a new scheduling must go
// permanently inert — Stop must not cancel the struct's new occupant.
func TestTimerABAAfterRecycle(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	fired1, fired2 := false, false
	t1 := e.At(10*Microsecond, func() { fired1 = true })
	if err := e.RunUntil(20 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if !fired1 {
		t.Fatal("first event did not fire")
	}
	// The pool guarantees the freed struct is reused for the very next
	// scheduling on this engine.
	t2 := e.At(30*Microsecond, func() { fired2 = true })
	if t1.ev != t2.ev {
		t.Fatalf("expected pool to recycle the event struct (got %p vs %p)", t1.ev, t2.ev)
	}
	if t1.Active() {
		t.Fatal("stale Timer reports Active after its event was recycled")
	}
	if t1.Stop() {
		t.Fatal("stale Timer.Stop reported success")
	}
	if !t2.Active() {
		t.Fatal("stale Stop cancelled the new occupant (ABA)")
	}
	if err := e.RunUntil(MaxTime); err != nil {
		t.Fatal(err)
	}
	if !fired2 {
		t.Fatal("recycled event did not fire")
	}
}

// TestSameTimeFIFOMixed checks (at, seq) FIFO order across the two
// queues: an event sitting in the heap for time T (scheduled early, low
// seq) must run before same-time events added to the run queue at T, and
// Yield/After(0)/At(now) must interleave in scheduling order.
func TestSameTimeFIFOMixed(t *testing.T) {
	e := NewEngine(1)
	const T = 100 * Microsecond
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	e.At(T, log("heap-1")) // seq 0: dispatched first at T
	e.At(T, func() {
		order = append(order, "heap-2")
		// Now at T: these go to the run queue, behind heap-3 (lower seq).
		e.After(0, log("runq-1"))
		e.At(e.Now(), log("runq-2"))
	})
	e.At(T, log("heap-3")) // seq 2: still beats the runq events on seq
	e.Spawn("yielder", func(p *Proc) {
		p.SleepUntil(T)
		order = append(order, "proc-a")
		p.Yield()
		order = append(order, "proc-b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The proc's SleepUntil wake (scheduled at t=0, seq 4) fires after
	// heap-3; its Yield then queues behind runq-1/runq-2.
	want := "[heap-1 heap-2 heap-3 proc-a runq-1 runq-2 proc-b]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestYieldStormFIFO floods the same-time ring (forcing it to grow) and
// checks strict FIFO across many procs at one instant.
func TestYieldStormFIFO(t *testing.T) {
	e := NewEngine(1)
	const procs, rounds = 100, 5
	turn := 0
	for i := 0; i < procs; i++ {
		i := i
		e.Spawn("y", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				want := r*procs + i
				if turn != want {
					t.Errorf("proc %d round %d ran at turn %d, want %d", i, r, turn, want)
				}
				turn++
				p.Yield()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if turn != procs*rounds {
		t.Fatalf("turn = %d, want %d", turn, procs*rounds)
	}
}

// TestStopReleasesCancelledClosure verifies Timer.Stop drops the event's
// closure immediately, not when the cancelled event is finally popped:
// the captured allocation must become collectable while the event is
// still queued.
func TestStopReleasesCancelledClosure(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	collected := make(chan struct{})
	tm := func() Timer {
		big := make([]byte, 1<<20)
		runtime.SetFinalizer(&big[0], func(*byte) { close(collected) })
		return e.At(Hour, func() { _ = big })
	}()
	// Keep a far-future anchor so the queue (and the cancelled event) stays live.
	e.At(2*Hour, func() {})
	if !tm.Stop() {
		t.Fatal("Stop failed")
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(time.Millisecond):
		}
	}
	t.Fatal("cancelled closure still retained after Stop (fn not dropped)")
}

// TestScheduleAfterClosePanics pins the loud-failure contract: events
// scheduled on a closed engine would never run, so At and Spawn must
// panic instead of silently queueing.
func TestScheduleAfterClosePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on closed engine did not panic", name)
			}
		}()
		f()
	}
	e := NewEngine(1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	mustPanic("At", func() { e.At(Microsecond, func() {}) })
	mustPanic("After", func() { e.After(Microsecond, func() {}) })
	mustPanic("Spawn", func() { e.Spawn("late", func(p *Proc) {}) })
	mustPanic("SpawnAt", func() { e.SpawnAt(Microsecond, "late", func(p *Proc) {}) })
}

// TestCloseTeardownAscendingPIDs: teardown order is part of the
// determinism contract and must be ascending pid regardless of spawn
// pattern.
func TestCloseTeardownAscendingPIDs(t *testing.T) {
	e := NewEngine(1)
	var killed []int
	sig := NewSignal(e, "never")
	// Spawn in shuffled start-time order so map iteration alone would
	// not produce ascending ids.
	for _, d := range []Duration{5, 1, 9, 3, 7, 2, 8, 4, 6, 0} {
		e.SpawnAt(d*Microsecond, fmt.Sprintf("p%d", d), func(p *Proc) {
			defer func() { killed = append(killed, p.id) }()
			sig.Wait(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(killed) != 10 {
		t.Fatalf("killed %d procs, want 10", len(killed))
	}
	for i := 1; i < len(killed); i++ {
		if killed[i] <= killed[i-1] {
			t.Fatalf("teardown order not ascending: %v", killed)
		}
	}
}

// TestGrantVsTimeoutSameInstant: a grant and a timeout landing at the
// same virtual time must resolve deterministically — whichever event has
// the lower sequence number wins, and the loser is fully cancelled (no
// double wake, no lost or duplicated item).
func TestGrantVsTimeoutSameInstant(t *testing.T) {
	// Grant wins: the Put event is scheduled before the receiver's
	// timeout timer, so at the shared instant it has the lower seq; the
	// grant cancels the timer.
	e := NewEngine(1)
	m := NewMailbox[int](e, "m")
	var got []string
	e.At(10*Microsecond, func() { m.Put(7) })
	e.Spawn("recv", func(p *Proc) {
		if v, ok := m.GetTimeout(p, 10*Microsecond); ok {
			got = append(got, fmt.Sprintf("val%d", v))
		} else {
			got = append(got, "timeout")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[val7]" {
		t.Fatalf("grant-first: got = %v", got)
	}

	// Timeout wins: the sender's wake (and thus its Put) carries a
	// higher seq than the timeout timer, so the receiver times out first
	// and the item stays in the mailbox.
	e = NewEngine(1)
	m = NewMailbox[int](e, "m")
	got = nil
	e.Spawn("recv", func(p *Proc) {
		if _, ok := m.GetTimeout(p, 10*Microsecond); !ok {
			got = append(got, "timeout")
		}
		p.Sleep(5 * Microsecond)
		if v, ok := m.TryGet(); ok {
			got = append(got, fmt.Sprintf("left%d", v))
		}
	})
	e.Spawn("send", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		m.Put(9)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[timeout left9]" {
		t.Fatalf("timeout-first: got = %v", got)
	}
}
