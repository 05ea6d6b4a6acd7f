package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// ErrStopped is returned by Run when the simulation was halted by an
// explicit call to Stop before the event queue drained.
var ErrStopped = errors.New("sim: engine stopped")

// Engine is a deterministic discrete-event simulator. It owns the
// virtual clock, the event queue, and the set of live processes. An
// Engine is not safe for concurrent use from multiple OS threads; all
// interaction happens either before Run or from within simulated
// processes and event callbacks, which the engine serialises.
//
// Scheduling is split across two structures: events due exactly now go
// to a FIFO ring (runq) drained in O(1), and future events go to a
// 4-ary min-heap keyed by (at, seq). Fired events are recycled through
// a free list, so steady-state scheduling does not allocate. The
// dispatch loop itself is not pinned to one goroutine: it migrates with
// a driver token between the RunUntil caller and process goroutines
// (see Proc), which is what keeps process switches down to at most one
// channel handoff.
type Engine struct {
	now   Time
	limit Time
	heap  eventHeap
	// runq holds the events due exactly now (Yield, zero-delay After,
	// wakes granted by Put/Release/Fire). The clock cannot move while
	// they are pending and seq grows monotonically, so their FIFO order
	// is (at, seq) order and they bypass the heap.
	runq    queue[*event]
	free    []*event
	seq     uint64
	rng     *rand.Rand
	parked  chan struct{}
	done    chan struct{}
	procs   map[*Proc]struct{}
	nextPID int
	stopped bool
	failure error
	running bool
	closed  bool
	closing bool
	// stat lives at the tail so the 64-byte tally block does not push
	// the loop-read control fields (stopped, limit, queues) onto extra
	// cache lines; the hot fields above keep their pre-obs layout.
	stat engineStats // always-on tallies; Observe exports them
}

// NewEngine returns an engine with its clock at zero and a deterministic
// random source seeded with seed. Two engines created with the same seed
// and driven by the same program produce identical schedules.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:    rand.New(rand.NewSource(seed)),
		parked: make(chan struct{}),
		done:   make(chan struct{}),
		procs:  make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. Subsystems must
// draw randomness only from here (never the global rand) so that a seed
// fully determines a run.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// schedule is the single entry point onto the event queues. Exactly one
// of fn/p is set: fn for callback events, p for direct process wakes.
// Scheduling in the past is a caller bug; the engine clamps it to "now"
// to keep the clock monotonic.
func (e *Engine) schedule(t Time, fn func(), p *Proc) *event {
	if e.closed {
		// Deferred process cleanup running inside Close may legitimately
		// fire signals or release resources; those wakes target processes
		// that are themselves being torn down, so they are dropped. Any
		// scheduling after Close has returned is a caller bug: the event
		// would sit in the queue forever, so fail loudly instead.
		if e.closing {
			return nil
		}
		panic("sim: event scheduled on closed engine (after Close/Run returned)")
	}
	if t < e.now {
		t = e.now
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.proc = t, e.seq, fn, p
	ev.afn, ev.arg = nil, nil
	ev.cancelled, ev.timeout = false, false
	e.seq++
	if t == e.now {
		e.runq.push(ev)
		if n := int64(e.runq.n); n > e.stat.runqMax {
			e.stat.runqMax = n
		}
	} else {
		e.heap.push(ev)
		if n := int64(len(e.heap.items)); n > e.stat.heapMax {
			e.stat.heapMax = n
		}
	}
	return ev
}

// recycle returns a popped event to the free list. Bumping gen first
// invalidates every Timer handle that still points at the struct.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.proc = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at virtual time t and returns a cancellable
// Timer.
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.schedule(t, fn, nil)
	if ev == nil {
		return Timer{}
	}
	return Timer{ev: ev, gen: ev.gen}
}

// AtArg schedules fn(arg) to run at virtual time t. Unlike At it needs
// no closure: fn is typically a long-lived bound method shared by every
// call and arg rides inside the pooled event, so steady-state
// scheduling allocates nothing when arg is pointer-shaped.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Timer {
	ev := e.schedule(t, nil, nil)
	if ev == nil {
		return Timer{}
	}
	ev.afn = fn
	ev.arg = arg
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// wakeProcAt schedules a direct wake of p at time t: the fast path under
// Sleep/Yield and every grant in Mailbox/Resource/Signal. It allocates
// nothing in steady state — no closure, and the event comes from the
// pool.
func (e *Engine) wakeProcAt(t Time, p *Proc) {
	e.schedule(t, nil, p)
}

// procTimeoutAfter schedules a wake of p carrying the timeout flag d
// from now, returning the Timer that a grant path cancels. The woken
// process removes itself from whatever wait queue it is on — the waiter
// record is on its stack, so no closure is needed.
func (e *Engine) procTimeoutAfter(d Duration, p *Proc) Timer {
	if d < 0 {
		d = 0
	}
	ev := e.schedule(e.now+d, nil, p)
	if ev == nil {
		return Timer{}
	}
	ev.timeout = true
	return Timer{ev: ev, gen: ev.gen}
}

// Stop halts the simulation after the currently executing event
// completes. Run will return ErrStopped.
func (e *Engine) Stop() { e.stopped = true }

// Fail halts the simulation and causes Run to return err. Processes use
// it (via Proc.Fail) to abort a run on invariant violations.
func (e *Engine) Fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
	e.stopped = true
}

// dispatchResult says how a dispatch loop invocation ended.
type dispatchResult int

const (
	// dispatchWoken: the next event was self's own wake; self keeps the
	// driver token and continues running. No goroutine switch happened.
	dispatchWoken dispatchResult = iota
	// dispatchHandoff: the driver token was handed to another process;
	// the caller must park (or may exit).
	dispatchHandoff
	// dispatchDone: the run terminated (queue drained, horizon reached,
	// or Stop/Fail); whoever holds this result must signal e.done if it
	// is not the RunUntil caller itself.
	dispatchDone
)

// dispatch runs the event loop on behalf of the current goroutine until
// the run terminates, the token moves to another process, or — when
// self is non-nil — self's own wake event fires. It is the core of the
// engine; every goroutine holding the driver token executes it.
func (e *Engine) dispatch(self *Proc) (wake, dispatchResult) {
	for !e.stopped {
		var ev *event
		if e.runq.n > 0 && e.now <= e.limit {
			// Same-time events dispatch FIFO, but an event scheduled
			// earlier (lower seq) for exactly this time may still sit in
			// the heap; (at, seq) order decides.
			ev = *e.runq.at(0)
			if len(e.heap.items) > 0 {
				if h := e.heap.items[0]; h.at == e.now && h.seq < ev.seq {
					ev = e.heap.pop()
				} else {
					e.runq.pop()
				}
			} else {
				e.runq.pop()
			}
		} else if len(e.heap.items) > 0 {
			h := e.heap.items[0]
			if h.at > e.limit {
				if e.limit > e.now && e.limit < MaxTime {
					e.now = e.limit
				}
				return wake{}, dispatchDone
			}
			ev = e.heap.pop()
			e.now = ev.at
		} else {
			return wake{}, dispatchDone
		}
		if ev.cancelled {
			e.stat.cancelled++
			e.recycle(ev)
			continue
		}
		if q := ev.proc; q != nil {
			tok := wake{timeout: ev.timeout, drive: true}
			e.recycle(ev)
			if q == self {
				return tok, dispatchWoken
			}
			e.stat.switches++
			q.resume <- tok
			return wake{}, dispatchHandoff
		}
		if afn := ev.afn; afn != nil {
			arg := ev.arg
			e.recycle(ev)
			e.stat.callbacks++
			afn(arg)
			continue
		}
		fn := ev.fn
		e.recycle(ev)
		e.stat.callbacks++
		fn()
	}
	return wake{}, dispatchDone
}

// Run executes events until the queue drains or Stop/Fail is called,
// then tears down all remaining processes. It returns the first failure,
// ErrStopped on an explicit stop, or nil when the queue drained.
func (e *Engine) Run() error {
	err := e.RunUntil(MaxTime)
	e.Close()
	return err
}

// RunUntil executes events whose time is at most limit. The clock never
// advances past limit; events scheduled later stay queued, and parked
// processes stay parked, so the caller may continue the run with another
// RunUntil. Callers that do not continue must call Close to release the
// process goroutines. It returns the first failure, ErrStopped on an
// explicit stop, or nil otherwise.
func (e *Engine) RunUntil(limit Time) error {
	if e.running {
		return errors.New("sim: RunUntil called reentrantly")
	}
	if e.closed {
		return errors.New("sim: engine already closed")
	}
	e.running = true
	defer func() { e.running = false }()
	e.limit = limit
	if _, res := e.dispatch(nil); res == dispatchHandoff {
		// The driver token is loose in the process graph; wait for
		// whichever goroutine reaches the end of the run to report in.
		<-e.done
	}
	if e.failure != nil {
		return e.failure
	}
	if e.stopped {
		return ErrStopped
	}
	return nil
}

// Close terminates every still-parked process so that no goroutines
// outlive the simulation. It is idempotent. After Close the engine can
// no longer run, and scheduling new work panics.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.closing = true
	defer func() { e.closing = false }()
	// Kill in ascending pid order: teardown order is observable via
	// process cleanup hooks, and determinism everywhere is cheap. One
	// sorted snapshot replaces the old per-victim min scan (which was
	// quadratic in the number of parked processes).
	victims := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		victims = append(victims, p)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, p := range victims {
		p.kill()
	}
}

// Pending reports the number of events still queued, including cancelled
// ones not yet popped. Intended for tests and diagnostics.
func (e *Engine) Pending() int { return e.heap.len() + e.runq.len() }

// NextLive reports the time of the earliest non-cancelled event still
// queued, or MaxTime when only cancelled events (or nothing) remain.
// Cancelled events found at the queue heads are reaped eagerly — exactly
// the bookkeeping the dispatch loop would do on pop — so a caller polling
// NextLive between RunUntil horizons does not scan them again. The
// sharded driver uses this for idle detection: cancelled protocol timers
// (AM retransmit/completion guards) otherwise keep Pending non-zero long
// after the last real event, which would force a windowed run to crawl
// through millions of empty lookahead windows.
func (e *Engine) NextLive() Time {
	for e.runq.n > 0 && (*e.runq.at(0)).cancelled {
		e.stat.cancelled++
		e.recycle(e.runq.pop())
	}
	for len(e.heap.items) > 0 && e.heap.items[0].cancelled {
		e.stat.cancelled++
		e.recycle(e.heap.pop())
	}
	if e.runq.n > 0 {
		// Same-time FIFO work is due at the current instant.
		return e.now
	}
	if len(e.heap.items) > 0 {
		return e.heap.items[0].at
	}
	return MaxTime
}

// invariant records a failure when cond is false; used by primitives to
// catch API misuse (double release, negative acquire) loudly.
func (e *Engine) invariant(cond bool, format string, args ...any) {
	if !cond {
		e.Fail(fmt.Errorf("sim: invariant violated: "+format, args...))
	}
}
