package sim

import "fmt"

// killSentinel is the panic value used to unwind a process goroutine
// when the engine tears it down. It never escapes the package: Proc.run
// recovers it. This is internal control flow, not error signalling.
type killSentinel struct{}

// wake is the token a parked process receives when resumed.
type wake struct {
	kill    bool // engine teardown: unwind the goroutine
	timeout bool // the wait's deadline fired before the condition
	drive   bool // the driver token rides along: the receiver runs the
	// dispatch loop at its next park instead of handing control back
}

// Proc is a simulated process: a goroutine whose blocking operations
// (Sleep, Resource.Acquire, Mailbox.Get, Signal.Wait, ...) park it until
// the engine resumes it at a later virtual time. At most one process
// executes at any moment, so process code needs no locking around
// simulation state.
//
// Control transfers between goroutines by migrating a single "driver
// token": whichever goroutine holds it runs the engine's dispatch loop
// when its process parks. Waking another process is therefore one direct
// channel handoff, and a process woken by its own next event (the common
// Sleep/Yield case) resumes without any goroutine switch at all.
type Proc struct {
	eng     *Engine
	id      int
	name    string
	resume  chan wake
	done    bool
	driving bool // this goroutine holds the driver token
	// waitTimer is the deadline of the Mailbox, Signal or Resource wait
	// the process is parked in (zero when the wait has none). A process
	// parks on at most one primitive at a time, so the wait queues hold
	// bare *Proc values and keep no per-wait record of their own.
	waitTimer Timer
}

// Spawn starts body as a new simulated process at the current virtual
// time. The body runs when the engine reaches the scheduling event; it
// may block on simulation primitives and must not block on real OS
// resources. The returned Proc is also passed to body.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, body)
}

// SpawnAt is Spawn with an explicit start time, used by workload
// generators replaying traces.
func (e *Engine) SpawnAt(t Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, id: e.nextPID, name: name, resume: make(chan wake)}
	e.nextPID++
	e.At(t, func() {
		e.procs[p] = struct{}{}
		// Synchronous handoff: the new goroutine runs body immediately
		// (without the driver token) and hands control back here at its
		// first park or exit.
		go p.run(body)
		<-e.parked
	})
	return p
}

func (p *Proc) run(body func(p *Proc)) {
	defer func() {
		p.done = true
		delete(p.eng.procs, p)
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				// A real bug in process code: surface it as a run failure
				// instead of crashing the host test binary.
				p.eng.Fail(fmt.Errorf("sim: process %q panicked: %v", p.name, r))
			}
		}
		if p.driving {
			// This goroutine holds the driver token: keep the simulation
			// moving until the token can be handed to another process or
			// the run terminates.
			if _, res := p.eng.dispatch(nil); res == dispatchDone {
				p.eng.done <- struct{}{}
			}
		} else {
			// Woken synchronously (spawn start or teardown): hand control
			// back to the waiting caller.
			p.eng.parked <- struct{}{}
		}
	}()
	body(p)
}

// park blocks the process until a wake token arrives, yielding control
// back to the simulation. A driving process dispatches further events
// inline; a synchronously woken one hands control back to its waker.
func (p *Proc) park() wake {
	var w wake
	if p.driving {
		var res dispatchResult
		w, res = p.eng.dispatch(p)
		if res != dispatchWoken {
			if res == dispatchDone {
				p.eng.done <- struct{}{}
			}
			w = <-p.resume
		}
	} else {
		p.eng.parked <- struct{}{}
		w = <-p.resume
	}
	p.driving = w.drive
	if w.kill {
		panic(killSentinel{})
	}
	return w
}

// parkWait parks p, already queued on a wait primitive, until a grant
// or the deadline d (none when d < 0) wakes it, and reports whether the
// deadline fired first. A timed-out process is still on its queue: a
// grant would have stopped the timer.
func (p *Proc) parkWait(d Duration) (timedOut bool) {
	p.waitTimer = Timer{}
	if d >= 0 {
		p.waitTimer = p.eng.procTimeoutAfter(d, p)
	}
	return p.park().timeout
}

// grant wakes p, parked in parkWait, at the current time and cancels its
// deadline.
func (p *Proc) grant() {
	p.waitTimer.Stop()
	p.eng.wakeProcAt(p.eng.now, p)
}

// kill tears the process down during Engine.Close. The wake carries no
// driver token, so the unwinding goroutine hands control straight back.
func (p *Proc) kill() {
	if p.done {
		delete(p.eng.procs, p)
		return
	}
	p.resume <- wake{kill: true}
	<-p.eng.parked
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Sleep parks the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.wakeProcAt(p.eng.now+d, p)
	p.park()
}

// SleepUntil parks the process until virtual time t (no-op if t has
// passed).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.eng.now {
		return
	}
	p.eng.wakeProcAt(t, p)
	p.park()
}

// Yield reschedules the process at the current time behind already
// queued events, letting same-time work interleave fairly.
func (p *Proc) Yield() {
	p.eng.wakeProcAt(p.eng.now, p)
	p.park()
}

// Fail aborts the whole simulation with err; used when a process detects
// an invariant violation that invalidates the run.
func (p *Proc) Fail(err error) {
	p.eng.Fail(err)
	// Unwind this goroutine; the engine will return the failure.
	panic(killSentinel{})
}
