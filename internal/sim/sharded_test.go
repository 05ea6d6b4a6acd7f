package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// ringMsg is the payload forwarded around the partition ring in tests.
type ringMsg struct {
	hops int
	tag  int
}

// runRing builds a Parts-partition workload that exercises every sharded
// code path — local events, RNG draws, cross-partition sends from both
// processes and event callbacks, message forwarding chains — and returns
// a per-partition log of everything that happened plus the run error and
// stats. The log is a pure function of (parts, workers-independent
// schedule), so tests compare it byte-for-byte across Workers settings.
func runRing(t *testing.T, parts, workers, rounds int, seed int64, stopAt Time) ([][]string, ShardedStats, error) {
	t.Helper()
	const W = 5 * Microsecond
	s := NewShardedEngine(ShardedConfig{Parts: parts, Workers: workers, Seed: seed, Window: W})
	defer s.Close()
	logs := make([][]string, parts)
	for i := 0; i < parts; i++ {
		i := i
		e := s.Engine(i)
		s.OnDeliver(i, func(m ShardMsg) {
			e.AtArg(m.At, func(a any) {
				mm := a.(ShardMsg)
				rm := mm.Data.(ringMsg)
				logs[i] = append(logs[i], fmt.Sprintf("%d recv@%d src=%d seq=%d hops=%d tag=%d",
					i, int64(e.Now()), mm.Src, mm.Seq, rm.hops, rm.tag))
				if rm.hops > 0 {
					// Forward from inside an event callback.
					s.Send(i, (i+1)%parts, e.Now()+W+Duration(rm.tag%3)*Microsecond,
						ringMsg{hops: rm.hops - 1, tag: rm.tag})
				}
			}, m)
		})
		e.Spawn(fmt.Sprintf("pump-%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(Duration(1+e.Rand().Intn(7)) * Microsecond)
				logs[i] = append(logs[i], fmt.Sprintf("%d round=%d t=%d", i, r, int64(p.Now())))
				s.Send(i, (i+1)%parts, p.Now()+W, ringMsg{hops: parts + 1, tag: i*1000 + r})
			}
		})
		if stopAt > 0 && i == 0 {
			e.At(stopAt, func() { e.Stop() })
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Run(MaxTime) }()
	select {
	case err := <-errc:
		return logs, s.Stats(), err
	case <-time.After(30 * time.Second):
		t.Fatal("sharded run deadlocked")
		return nil, ShardedStats{}, nil
	}
}

// statsKey strips the wall-clock-dependent Stalls field so the rest of
// the stats block can be compared across worker counts.
func statsKey(st ShardedStats) string {
	st.Stalls = 0
	st.Workers = 0
	return fmt.Sprintf("%+v", st)
}

// TestShardedDeterminismAcrossWorkers is the heart of the design: the
// same (parts, seed) workload must produce identical logs and tallies
// whether the partitions run on 1 worker or many.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	const parts = 4
	baseLogs, baseStats, err := runRing(t, parts, 1, 6, 42, 0)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if baseStats.Sent == 0 || baseStats.Recv != baseStats.Sent {
		t.Fatalf("ring should send and fully deliver: %+v", baseStats)
	}
	for _, workers := range []int{2, 4} {
		logs, stats, err := runRing(t, parts, workers, 6, 42, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(logs, baseLogs) {
			t.Errorf("workers=%d: logs diverge from workers=1", workers)
		}
		if statsKey(stats) != statsKey(baseStats) {
			t.Errorf("workers=%d: stats diverge:\n  %s\n  %s", workers, statsKey(stats), statsKey(baseStats))
		}
	}
	// Different seed must actually change the schedule (guards against a
	// workload that ignores its RNG and trivially "stays deterministic").
	otherLogs, _, err := runRing(t, parts, 2, 6, 43, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(otherLogs, baseLogs) {
		t.Error("different seed produced identical logs; workload not exercising RNG")
	}
}

// TestShardedMergeOrderOnTies pins the (At, Src, Seq) merge: several
// partitions send to partition 0 for the same virtual time, and
// partition 0 must inject them by source, then in send order, at every
// worker count. Source 1 sends the most messages, so its sequence
// numbers run highest: a merge on (At, Seq) alone interleaves the
// sources instead.
func TestShardedMergeOrderOnTies(t *testing.T) {
	const parts, W = 4, 5 * Microsecond
	run := func(workers int) []int {
		s := NewShardedEngine(ShardedConfig{Parts: parts, Workers: workers, Seed: 1, Window: W})
		defer s.Close()
		var got []int
		s.OnDeliver(0, func(m ShardMsg) { got = append(got, m.Data.(int)) })
		for src := 1; src < parts; src++ {
			src := src
			s.Engine(src).At(0, func() {
				for k := 0; k < parts-src; k++ {
					s.Send(src, 0, 2*W, src*10+k)
				}
			})
		}
		if err := s.Run(MaxTime); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return got
	}
	want := []int{10, 11, 12, 20, 21, 30}
	for _, workers := range []int{1, 2, 4} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: delivery order %v, want %v", workers, got, want)
		}
	}
}

// TestShardedStopMidDrain pins the Engine.Stop-under-sharding semantics:
// a Stop fired inside one partition's event stream quiesces every peer
// without deadlocking the horizon gates, peers finish exactly the
// stopping window, and the final state is identical at any worker count.
func TestShardedStopMidDrain(t *testing.T) {
	// 23µs is mid-window (W=5µs) while ring traffic is still in flight,
	// so peers have staged and in-flight messages when the stop lands.
	const stopAt = 23 * Microsecond
	baseLogs, baseStats, err := runRing(t, 4, 1, 50, 7, stopAt)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if baseStats.Sent == baseStats.Recv {
		t.Logf("note: no messages were in flight at stop (sent=%d recv=%d)", baseStats.Sent, baseStats.Recv)
	}
	for _, workers := range []int{2, 4} {
		logs, stats, err := runRing(t, 4, workers, 50, 7, stopAt)
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("workers=%d: want ErrStopped, got %v", workers, err)
		}
		if !reflect.DeepEqual(logs, baseLogs) {
			t.Errorf("workers=%d: stop-point logs diverge from workers=1", workers)
		}
		if statsKey(stats) != statsKey(baseStats) {
			t.Errorf("workers=%d: stop-point stats diverge:\n  %s\n  %s", workers, statsKey(stats), statsKey(baseStats))
		}
	}
}

// TestShardedExternalStop checks the non-deterministic abort path: an
// external Stop terminates the run promptly with ErrStopped.
func TestShardedExternalStop(t *testing.T) {
	const W = 5 * Microsecond
	s := NewShardedEngine(ShardedConfig{Parts: 2, Workers: 2, Seed: 1, Window: W})
	defer s.Close()
	for i := 0; i < 2; i++ {
		i := i
		e := s.Engine(i)
		s.OnDeliver(i, func(m ShardMsg) {
			e.AtArg(m.At, func(a any) {
				mm := a.(ShardMsg)
				// Ping-pong forever.
				s.Send(i, 1-i, e.Now()+W, mm.Data)
			}, m)
		})
		e.Spawn("seed", func(p *Proc) {
			s.Send(i, 1-i, p.Now()+W, ringMsg{})
		})
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Run(MaxTime) }()
	time.Sleep(10 * time.Millisecond)
	s.Stop()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("want ErrStopped, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("external Stop did not terminate the run")
	}
}

// TestShardedIdleTermination: a workload that goes fully quiet must end
// the run via the idle vote, not hang in empty windows, even when
// cancelled timers still sit in the queues.
func TestShardedIdleTermination(t *testing.T) {
	const W = 5 * Microsecond
	s := NewShardedEngine(ShardedConfig{Parts: 3, Workers: 3, Seed: 9, Window: W})
	defer s.Close()
	for i := 0; i < 3; i++ {
		e := s.Engine(i)
		s.OnDeliver(i, func(m ShardMsg) {})
		e.Spawn("burst", func(p *Proc) {
			for r := 0; r < 4; r++ {
				// Long-deadline timers cancelled immediately: these are
				// the AM completion-guard pattern that must not keep the
				// windowed loop crawling until the deadline.
				tm := e.After(10*Second, func() {})
				p.Sleep(3 * Microsecond)
				tm.Stop()
			}
		})
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Run(MaxTime) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("idle workload did not terminate")
	}
	st := s.Stats()
	for i, pp := range st.PerPart {
		if pp.Now > 30*Microsecond {
			t.Errorf("partition %d clock ran to %v; cancelled timers not pruned from idle detection", i, pp.Now)
		}
	}
}

// TestNextLive covers the cancelled-head pruning the sharded driver
// relies on for idle detection.
func TestNextLive(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	if got := e.NextLive(); got != MaxTime {
		t.Fatalf("empty engine NextLive = %v, want MaxTime", got)
	}
	tm1 := e.At(10*Microsecond, func() {})
	tm2 := e.At(20*Microsecond, func() {})
	if got := e.NextLive(); got != 10*Microsecond {
		t.Fatalf("NextLive = %v, want 10µs", got)
	}
	tm1.Stop()
	if got := e.NextLive(); got != 20*Microsecond {
		t.Fatalf("after cancelling head, NextLive = %v, want 20µs", got)
	}
	tm2.Stop()
	if got := e.NextLive(); got != MaxTime {
		t.Fatalf("all cancelled: NextLive = %v, want MaxTime", got)
	}
	if e.Pending() != 0 {
		t.Fatalf("cancelled heads should be reaped, Pending = %d", e.Pending())
	}
}

// TestShardedLookaheadViolation: a send that arrives inside the sender's
// own window is a protocol bug and must panic loudly.
func TestShardedLookaheadViolation(t *testing.T) {
	const W = 5 * Microsecond
	s := NewShardedEngine(ShardedConfig{Parts: 2, Workers: 1, Seed: 1, Window: W})
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead-violating Send did not panic")
		}
	}()
	s.Send(0, 1, 1*Microsecond, nil) // < now(0) + W
}
