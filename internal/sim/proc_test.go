package sim

import (
	"fmt"
	"testing"
)

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 100*Microsecond {
		t.Fatalf("woke at %v, want 100µs", woke)
	}
}

func TestProcSleepSequence(t *testing.T) {
	e := NewEngine(1)
	var marks []Time
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Microsecond)
			marks = append(marks, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * Microsecond, 20 * Microsecond, 30 * Microsecond}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v", marks)
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	e := NewEngine(1)
	var order []string
	mk := func(name string, period Duration) {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(period)
				order = append(order, fmt.Sprintf("%s@%v", name, p.Now()))
			}
		})
	}
	mk("a", 10*Microsecond)
	mk("b", 15*Microsecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// At t=30 both wake; b's wake event was scheduled first (at t=15,
	// vs a's at t=20), so b runs first under (time, seq) ordering.
	want := "[a@10µs b@15µs a@20µs b@30µs a@30µs b@45µs]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestSpawnAtStartsLater(t *testing.T) {
	e := NewEngine(1)
	var started Time
	e.SpawnAt(5*Millisecond, "late", func(p *Proc) { started = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 5*Millisecond {
		t.Fatalf("started at %v, want 5ms", started)
	}
}

func TestProcIDsAreSpawnOrdered(t *testing.T) {
	e := NewEngine(1)
	a := e.Spawn("a", func(p *Proc) {})
	b := e.Spawn("b", func(p *Proc) {})
	if a.id >= b.id {
		t.Fatalf("ids: a=%d b=%d", a.id, b.id)
	}
	if a.name != "a" {
		t.Fatalf("name = %q", a.name)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunKillsParkedProcs(t *testing.T) {
	e := NewEngine(1)
	cleaned := false
	e.Spawn("forever", func(p *Proc) {
		defer func() { cleaned = true }()
		sig := NewSignal(e, "never")
		sig.Wait(p) // never fired
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run at teardown")
	}
}

func TestProcPanicBecomesRunError(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bad", func(p *Proc) {
		panic("kaboom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestProcFailAbortsRun(t *testing.T) {
	e := NewEngine(1)
	reached := false
	e.Spawn("failer", func(p *Proc) {
		p.Fail(fmt.Errorf("invariant broken"))
		reached = true // must not execute
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected failure")
	}
	if reached {
		t.Fatal("code after Fail executed")
	}
}

func TestYieldRunsBehindQueuedWork(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[a1 b1 a2]" {
		t.Fatalf("order = %v", got)
	}
}

func TestSleepUntilPastIsNoop(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		p.SleepUntil(5 * Microsecond)
		if p.Now() != 10*Microsecond {
			t.Errorf("SleepUntil moved backwards: %v", p.Now())
		}
		p.SleepUntil(25 * Microsecond)
		if p.Now() != 25*Microsecond {
			t.Errorf("SleepUntil(25µs) woke at %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsNoLeak(t *testing.T) {
	e := NewEngine(1)
	done := 0
	for i := 0; i < 500; i++ {
		d := Duration(i) * Microsecond
		e.Spawn("w", func(p *Proc) {
			p.Sleep(d)
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 500 {
		t.Fatalf("done = %d", done)
	}
	if len(e.procs) != 0 {
		t.Fatalf("%d procs leaked", len(e.procs))
	}
}
