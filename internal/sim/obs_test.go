package sim

import (
	"bytes"
	"testing"

	"github.com/nowproject/now/internal/obs"
)

// TestEngineMetrics attaches a registry and checks the engine's
// counters account for everything dispatched. It also runs under the
// repository's -race gate, proving the collectors stay race-clean with
// the driver token migrating between goroutines.
func TestEngineMetrics(t *testing.T) {
	r := obs.NewRegistry()
	e := NewEngine(1)
	e.Observe(r)
	mb := NewMailbox[int](e, "mb")
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Sleep(Microsecond)
			mb.Put(i)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 50; i++ {
			if got := mb.Get(p); got != i {
				t.Errorf("got %d, want %d", got, i)
			}
			p.Yield()
		}
	})
	tm := e.After(Millisecond, func() { t.Error("cancelled timer fired") })
	tm.Stop()
	e.After(2*Millisecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Counters read the engine's internal tallies live; no Snapshot is
	// needed first.
	val := func(name string) int64 {
		v, ok := r.CounterValue(name)
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return v
	}
	if val("sim.proc.spawns") != 2 {
		t.Fatalf("spawns = %d", val("sim.proc.spawns"))
	}
	if val("sim.events.cancelled") != 1 {
		t.Fatalf("cancelled = %d", val("sim.events.cancelled"))
	}
	disp := val("sim.events.dispatched")
	parts := val("sim.events.callbacks") + val("sim.proc.wakes.self") + val("sim.proc.switches")
	if disp == 0 || disp != parts {
		t.Fatalf("dispatched %d != callbacks+self+switches %d", disp, parts)
	}
	if sched := val("sim.events.scheduled"); sched < disp {
		t.Fatalf("scheduled %d < dispatched %d", sched, disp)
	}
	if val("sim.proc.switches") == 0 {
		t.Fatal("mailbox ping-pong recorded no goroutine switches")
	}
	if max, _ := r.GaugeValue("sim.heap.depth.max"); max == 0 {
		t.Fatal("heap depth high-water mark never moved")
	}
}

// TestEngineMetricsDeterministic runs the same seeded scenario twice
// and demands byte-identical metrics JSON — the determinism contract
// the whole observability layer rests on.
func TestEngineMetricsDeterministic(t *testing.T) {
	runOnce := func() []byte {
		r := obs.NewRegistry()
		e := NewEngine(7)
		e.Observe(r)
		res := NewResource(e, "res", 2)
		for w := 0; w < 4; w++ {
			e.Spawn("worker", func(p *Proc) {
				for i := 0; i < 20; i++ {
					res.Use(p, 1, Duration(e.Rand().Intn(50)+1)*Microsecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WriteMetricsJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(runOnce(), runOnce()) {
		t.Fatal("same seed produced different metrics JSON")
	}
}

// TestProcSwitchZeroAllocDisabled asserts the engine's always-on
// tallies add zero allocations to the steady-state ProcSwitch path when
// no registry is attached — PR 1's zero-alloc scheduling must survive
// this layer.
func TestProcSwitchZeroAllocDisabled(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	stop := false
	e.Spawn("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(Microsecond)
		}
	})
	// Run past the spawn (which allocates the Proc) into steady state.
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
		t.Fatalf("disabled observability: ProcSwitch path allocated %.2f allocs/op, want 0", allocs)
	}
}

// BenchmarkProcSwitchObserved is BenchmarkProcSwitch with a live
// registry, quantifying the enabled-collector overhead (compare against
// ProcSwitch in BENCH_sim.json).
func BenchmarkProcSwitchObserved(b *testing.B) {
	e := NewEngine(1)
	e.Observe(obs.NewRegistry())
	n := b.N
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventThroughputObserved is BenchmarkEventThroughput with a
// live registry.
func BenchmarkEventThroughputObserved(b *testing.B) {
	e := NewEngine(1)
	e.Observe(obs.NewRegistry())
	defer e.Close()
	for i := 0; i < b.N; i++ {
		e.After(Microsecond, func() {})
		if e.Pending() > 10000 {
			if err := e.RunUntil(MaxTime); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.RunUntil(MaxTime); err != nil {
		b.Fatal(err)
	}
}
