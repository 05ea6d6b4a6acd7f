package node

import (
	"testing"

	"github.com/nowproject/now/internal/sim"
)

func TestDefaultConfigDiskMatchesTable2(t *testing.T) {
	// Table 2's disk term: ≈14.8 ms for an 8 KB access.
	e := sim.NewEngine(1)
	defer e.Close()
	n := New(e, DefaultConfig(0))
	var got sim.Duration
	e.Spawn("io", func(p *sim.Proc) {
		n.Disk.Read(p, 0, 8192)
		got = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got < 14500*sim.Microsecond || got > 15100*sim.Microsecond {
		t.Fatalf("8KB disk access = %v, want ≈14.8ms", got)
	}
}

func TestFlopAndInstrTime(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	cfg := DefaultConfig(0)
	cfg.MFLOPS = 50
	n := New(e, cfg)
	if got := n.FlopTime(50e6); got != sim.Second {
		t.Fatalf("50 Mflop at 50 MFLOPS = %v, want 1s", got)
	}
}

func TestConfigNormalisation(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	n := New(e, Config{ID: 3})
	cfg := n.cfg
	if cfg.MFLOPS <= 0 || cfg.Quantum <= 0 || cfg.PageSize <= 0 || cfg.Disk.BandwidthMBps <= 0 {
		t.Fatalf("config not normalised: %+v", cfg)
	}
	if n.ID() != 3 {
		t.Fatalf("ID = %d", n.ID())
	}
}

func TestCPUSingleTask(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(0)
	cfg.ContextSwitch = 0
	n := New(e, cfg)
	var done sim.Time
	e.Spawn("task", func(p *sim.Proc) {
		n.CPU.Compute(p, 250*sim.Millisecond)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 250*sim.Millisecond {
		t.Fatalf("done at %v, want 250ms", done)
	}
}

func TestCPUTimeslicesFairly(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(0)
	cfg.Quantum = 10 * sim.Millisecond
	cfg.ContextSwitch = 0
	n := New(e, cfg)
	var aDone, bDone sim.Time
	e.Spawn("a", func(p *sim.Proc) {
		n.CPU.Compute(p, 50*sim.Millisecond)
		aDone = p.Now()
	})
	e.Spawn("b", func(p *sim.Proc) {
		n.CPU.Compute(p, 50*sim.Millisecond)
		bDone = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Interleaved 10ms slices: both finish near 100ms, a one slice early.
	if aDone != 90*sim.Millisecond || bDone != 100*sim.Millisecond {
		t.Fatalf("aDone=%v bDone=%v, want 90ms/100ms", aDone, bDone)
	}
}

func TestCPUContextSwitchCost(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(0)
	cfg.Quantum = 10 * sim.Millisecond
	cfg.ContextSwitch = 1 * sim.Millisecond
	n := New(e, cfg)
	var last sim.Time
	for i := 0; i < 2; i++ {
		e.Spawn("t", func(p *sim.Proc) {
			n.CPU.Compute(p, 20*sim.Millisecond)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if last <= 40*sim.Millisecond {
		t.Fatalf("finished at %v despite switch cost", last)
	}
}

func TestCPUUtilizationAndBusy(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(0)
	cfg.ContextSwitch = 0
	n := New(e, cfg)
	e.Spawn("t", func(p *sim.Proc) {
		n.CPU.Compute(p, 30*sim.Millisecond)
		p.Sleep(70 * sim.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.CPU.BusyTime() != 30*sim.Millisecond {
		t.Fatalf("busy = %v", n.CPU.BusyTime())
	}
}

func TestCPUZeroComputeReturnsImmediately(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, DefaultConfig(0))
	ran := false
	e.Spawn("t", func(p *sim.Proc) {
		n.CPU.Compute(p, 0)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("zero compute blocked")
	}
}

func TestDiskSequentialSkipsSeek(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, DefaultConfig(0))
	var t1, t2 sim.Duration
	e.Spawn("io", func(p *sim.Proc) {
		start := p.Now()
		n.Disk.Read(p, 0, 8192) // random: pays seek
		t1 = p.Now() - start
		start = p.Now()
		n.Disk.ReadSeq(p, 8192, 8192) // sequential continuation
		t2 = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if t2 >= t1 {
		t.Fatalf("sequential %v not faster than random %v", t2, t1)
	}
	if t2 > 4*sim.Millisecond {
		t.Fatalf("sequential 8KB = %v, want pure transfer ≈2.8ms", t2)
	}
}

func TestDiskNonContiguousSeqPaysSeek(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, DefaultConfig(0))
	var dur sim.Duration
	e.Spawn("io", func(p *sim.Proc) {
		n.Disk.Read(p, 0, 4096)
		start := p.Now()
		n.Disk.ReadSeq(p, 1<<30, 4096) // jumped: seek anyway
		dur = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if dur < 12*sim.Millisecond {
		t.Fatalf("non-contiguous seq read took %v, should pay positioning", dur)
	}
}

func TestDiskQueueing(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, DefaultConfig(0))
	var finish []sim.Time
	for i := 0; i < 2; i++ {
		e.Spawn("io", func(p *sim.Proc) {
			n.Disk.Read(p, 0, 8192)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if one := finish[0]; one <= 0 || finish[1] != 2*one {
		t.Fatalf("finish = %v, want the second read to queue behind the first", finish)
	}
}

func TestDiskStats(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, DefaultConfig(0))
	e.Spawn("io", func(p *sim.Proc) {
		n.Disk.Read(p, 0, 100)
		n.Disk.Write(p, 200, 50)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	r, w, br, bw := n.Disk.Stats()
	if r != 1 || w != 1 || br != 100 || bw != 50 {
		t.Fatalf("stats = %d %d %d %d", r, w, br, bw)
	}
}

func TestMemoryTouchFaultsAndLRU(t *testing.T) {
	m := NewMemory(4*4096, 4096) // 4 frames
	for i := uint32(0); i < 4; i++ {
		fault, _, _, ev := m.Touch(PageID{Space: 1, Index: i}, false)
		if !fault || ev {
			t.Fatalf("initial touch %d: fault=%v ev=%v", i, fault, ev)
		}
	}
	// Re-touch page 0 (hit), then fault page 4: victim must be page 1.
	if fault, _, _, _ := m.Touch(PageID{1, 0}, false); fault {
		t.Fatal("resident page faulted")
	}
	fault, victim, _, ev := m.Touch(PageID{1, 4}, false)
	if !fault || !ev || victim != (PageID{1, 1}) {
		t.Fatalf("fault=%v ev=%v victim=%v", fault, ev, victim)
	}
}

func TestMemoryDirtyTracking(t *testing.T) {
	m := NewMemory(1*4096, 4096) // 1 frame
	m.Touch(PageID{1, 0}, true)  // dirty
	_, victim, victimDirty, ev := m.Touch(PageID{1, 1}, false)
	if !ev || victim != (PageID{1, 0}) || !victimDirty {
		t.Fatalf("victim=%v dirty=%v ev=%v", victim, victimDirty, ev)
	}
}

func TestMemoryWriteHitSetsDirty(t *testing.T) {
	m := NewMemory(2*4096, 4096)
	m.Touch(PageID{1, 0}, false) // clean
	m.Touch(PageID{1, 0}, true)  // write hit marks dirty
	m.Touch(PageID{1, 1}, false)
	_, victim, victimDirty, _ := m.Touch(PageID{1, 2}, false)
	if victim != (PageID{1, 0}) || !victimDirty {
		t.Fatalf("victim=%v dirty=%v, want page0 dirty", victim, victimDirty)
	}
}

func TestMemoryResizeEvicts(t *testing.T) {
	m := NewMemory(4*4096, 4096)
	for i := uint32(0); i < 4; i++ {
		m.Touch(PageID{1, i}, false)
	}
	evicted := m.Resize(2)
	if len(evicted) != 2 {
		t.Fatalf("evicted %v", evicted)
	}
	if n := len(m.frames.Keys()); n != 2 {
		t.Fatalf("resident = %d, want 2", n)
	}
	if _, _, _, ev := m.Touch(PageID{1, 9}, false); !ev {
		t.Fatal("a third page fit in two frames")
	}
}

func TestMemoryFlushAll(t *testing.T) {
	m := NewMemory(4*4096, 4096)
	m.Touch(PageID{1, 0}, true)
	m.Touch(PageID{1, 1}, false)
	dirty, all := m.FlushAll()
	if len(all) != 2 || len(dirty) != 1 || dirty[0] != (PageID{1, 0}) {
		t.Fatalf("dirty=%v all=%v", dirty, all)
	}
	if len(m.frames.Keys()) != 0 {
		t.Fatal("pages remain after flush")
	}
}

func TestMemoryHitRate(t *testing.T) {
	m := NewMemory(4*4096, 4096)
	m.Touch(PageID{1, 0}, false) // miss
	m.Touch(PageID{1, 0}, false) // hit
	if hr := m.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v", hr)
	}
	if m.hits != 1 || m.misses != 1 {
		t.Fatalf("counters = %d,%d", m.hits, m.misses)
	}
}

func TestCPUTaskAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, DefaultConfig(0))
	e.Spawn("t", func(p *sim.Proc) {
		n.CPU.Compute(p, sim.Millisecond)
		n.CPU.Compute(p, sim.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.CPU.BusyTime() != 2*sim.Millisecond {
		t.Fatalf("task time = %v", n.CPU.BusyTime())
	}
	// System-context work is accounted separately from timesliced tasks.
	e2 := sim.NewEngine(1)
	n2 := New(e2, DefaultConfig(0))
	e2.Spawn("s", func(p *sim.Proc) { n2.CPU.ComputeSystem(p, sim.Millisecond) })
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if n2.CPU.busy != 0 || n2.CPU.sysBusy != sim.Millisecond {
		t.Fatalf("task=%v sys=%v", n2.CPU.busy, n2.CPU.sysBusy)
	}
}
