package sim

import "github.com/nowproject/now/internal/obs"

// engineStats is the engine's always-on tally block: plain int64 fields
// bumped unconditionally, with every site off the critical self-wake
// path (switch and callback dispatches are dominated by the channel
// handoff / callback body; cancellation reaps are rare). It is the
// engine's only ledger: Observe exports each field with
// obs.CounterFunc/GaugeFunc, read live at every registry read. The
// remaining engine metrics are not tallied at all — they are derived
// at read time from state the engine maintains anyway:
//
//	scheduled  = seq        (one sequence number per schedule() call)
//	spawns     = nextPID    (one pid per SpawnAt)
//	dispatched = seq - cancelled - Pending()   (pops classify every event)
//	self-wakes = dispatched - switches - callbacks
//
// The derivations are exact, not approximations: events leave the
// queues only through the dispatch loop's pop, which counts each one as
// cancelled, a callback, a switch, or a self-wake. This is what keeps
// the unobserved ProcSwitch benchmark inside the <5 % budget the
// scheduler benchmarks enforce — the hot self-wake path carries no
// tally work beyond the queue-depth high-water checks in schedule().
// Without a registry the fields are simply never read.
type engineStats struct {
	cancelled int64 // sim.events.cancelled (reaped at pop)
	callbacks int64 // sim.events.callbacks
	switches  int64 // sim.proc.switches (driver-token handoffs)
	runqMax   int64 // sim.runq.depth.max
	heapMax   int64 // sim.heap.depth.max
}

// Observe attaches a metrics registry to the engine. Call it once, on a
// fresh engine, before Run: it registers the engine's collectors and
// installs the virtual clock that stamps every span recorded anywhere
// in the simulation. A nil registry leaves the engine unobserved (the
// default; the tally fields still tick but nothing reads them).
//
// Engine metrics (names per docs/OBSERVABILITY.md):
//
//	sim.events.scheduled     events placed on the queues
//	sim.events.dispatched    non-cancelled events executed
//	sim.events.cancelled     cancelled events reaped at pop
//	sim.events.callbacks     dispatched events that ran a callback fn
//	sim.proc.wakes.self      process wakes that kept the driver token
//	sim.proc.switches        process wakes that handed the token over
//	sim.proc.spawns          processes spawned
//	sim.runq.depth.max       same-time FIFO high-water mark
//	sim.heap.depth.max       future-event heap high-water mark
//	sim.procs.live           processes alive at snapshot (sampled)
//	sim.events.pending       events queued at snapshot (sampled)
//	sim.time.now.ns          virtual time at snapshot (sampled)
//
// Every metric reads engine state (or is derived from it — see
// engineStats) when the registry is read, so the values are exact
// totals as of that read, not a sampling approximation.
func (e *Engine) Observe(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetClock(func() obs.Time { return int64(e.now) })
	s := &e.stat
	r.CounterFunc("sim.events.scheduled", func() int64 { return int64(e.seq) })
	r.CounterFunc("sim.events.dispatched", e.dispatched)
	r.CounterFunc("sim.events.cancelled", func() int64 { return s.cancelled })
	r.CounterFunc("sim.events.callbacks", func() int64 { return s.callbacks })
	r.CounterFunc("sim.proc.wakes.self", func() int64 { return e.dispatched() - s.switches - s.callbacks })
	r.CounterFunc("sim.proc.switches", func() int64 { return s.switches })
	r.CounterFunc("sim.proc.spawns", func() int64 { return int64(e.nextPID) })
	r.GaugeFunc("sim.runq.depth.max", func() int64 { return s.runqMax })
	r.GaugeFunc("sim.heap.depth.max", func() int64 { return s.heapMax })
	r.GaugeFunc("sim.procs.live", func() int64 { return int64(len(e.procs)) })
	r.GaugeFunc("sim.events.pending", func() int64 { return int64(e.Pending()) })
	r.GaugeFunc("sim.time.now.ns", func() int64 { return int64(e.now) })
}

// dispatched derives sim.events.dispatched (see engineStats).
func (e *Engine) dispatched() int64 {
	return int64(e.seq) - e.stat.cancelled - int64(e.Pending())
}

// Instrument is Observe under the name every other subsystem uses, so
// the engine satisfies the front door's Instrumentable interface.
func (e *Engine) Instrument(r *obs.Registry) { e.Observe(r) }
