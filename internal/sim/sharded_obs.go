package sim

import (
	"strconv"

	"github.com/nowproject/now/internal/obs"
)

// Observe attaches a metrics registry to the sharded driver. Everything
// registered here is a pure function of seed and workload — per-PARTITION
// tallies keyed p0..pN, never per-worker — so the export is byte-identical
// across Workers settings and safe for the golden determinism gates.
// Deliberately absent: the worker count, and the horizon-stall tally
// (both wall-clock artifacts; read them from Stats instead).
//
// Metrics (names per docs/OBSERVABILITY.md):
//
//	sim.shard.parts            partition count (gauge)
//	sim.shard.window.ns        conservative lookahead window (gauge)
//	sim.shard.events{pI}       events scheduled on partition I's engine
//	sim.shard.msgs.sent{pI}    cross-shard messages sent by partition I
//	sim.shard.msgs.recv{pI}    cross-shard messages injected into I
//	sim.shard.msgs.sent.total  sum over partitions
//	sim.shard.msgs.recv.total  sum over partitions
//	sim.shard.windows.run      windows that executed events (all parts)
//	sim.shard.windows.idle     windows skipped as empty (all parts)
//
// Every metric reads partition state, so the registry may only be read
// while the simulation is quiescent: before Run, or after Run has
// returned.
func (s *ShardedEngine) Observe(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetClock(func() obs.Time {
		var t Time
		for _, p := range s.parts {
			if p.eng.now > t {
				t = p.eng.now
			}
		}
		return int64(t)
	})
	r.GaugeFunc("sim.shard.parts", func() int64 { return int64(s.cfg.Parts) })
	r.GaugeFunc("sim.shard.window.ns", func() int64 { return int64(s.cfg.Window) })
	for i, p := range s.parts {
		l := "{p" + strconv.Itoa(i) + "}"
		r.CounterFunc("sim.shard.events"+l, func() int64 { return int64(p.eng.seq) })
		r.CounterFunc("sim.shard.msgs.sent"+l, func() int64 { return p.sent })
		r.CounterFunc("sim.shard.msgs.recv"+l, func() int64 { return p.recv })
	}
	total := func(name string, get func(*shardPart) int64) {
		r.CounterFunc(name, func() int64 {
			var n int64
			for _, p := range s.parts {
				n += get(p)
			}
			return n
		})
	}
	total("sim.shard.msgs.sent.total", func(p *shardPart) int64 { return p.sent })
	total("sim.shard.msgs.recv.total", func(p *shardPart) int64 { return p.recv })
	total("sim.shard.windows.run", func(p *shardPart) int64 { return p.windowsRun })
	total("sim.shard.windows.idle", func(p *shardPart) int64 { return p.windowsIdle })
}

// Instrument is Observe under the facade's Instrumentable name.
func (s *ShardedEngine) Instrument(r *obs.Registry) { s.Observe(r) }
