package sim

// Signal is a condition-variable-like primitive: processes Wait on it
// and are released by Fire (one) or Broadcast (all). Unlike a condition
// variable there is no associated lock — the engine's run-to-park
// execution model already serialises state access.
type Signal struct {
	eng     *Engine
	name    string
	waiters queue[*Proc]
}

// NewSignal creates a signal on e.
func NewSignal(e *Engine, name string) *Signal {
	return &Signal{eng: e, name: name}
}

// Wait parks p until the signal fires for it.
func (s *Signal) Wait(p *Proc) {
	s.waitDeadline(p, -1)
}

// WaitTimeout is Wait with a deadline; it reports whether the signal
// (rather than the deadline) woke the process.
func (s *Signal) WaitTimeout(p *Proc, d Duration) bool {
	return s.waitDeadline(p, d)
}

func (s *Signal) waitDeadline(p *Proc, d Duration) bool {
	s.waiters.push(p)
	if p.parkWait(d) {
		removeProc(&s.waiters, p)
		return false
	}
	return true
}

// Fire releases the longest-waiting process, if any.
func (s *Signal) Fire() {
	if s.waiters.len() > 0 {
		s.waiters.pop().grant()
	}
}

// Broadcast releases every waiting process in FIFO order.
func (s *Signal) Broadcast() {
	for s.waiters.len() > 0 {
		s.waiters.pop().grant()
	}
}

// Waiting returns the number of parked waiters.
func (s *Signal) Waiting() int { return s.waiters.len() }

// WaitGroup counts outstanding activities and lets a process wait for
// the count to drain — the simulated analogue of sync.WaitGroup, used by
// barriers in the parallel application kernels.
type WaitGroup struct {
	eng   *Engine
	count int
	sig   Signal
}

// NewWaitGroup creates a WaitGroup on e.
func NewWaitGroup(e *Engine, name string) *WaitGroup {
	return &WaitGroup{eng: e, sig: Signal{eng: e, name: name}}
}

// Add increments the counter by delta (which may be negative, as in
// sync.WaitGroup.Done).
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	wg.eng.invariant(wg.count >= 0, "waitgroup went negative")
	if wg.count == 0 {
		wg.sig.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks p until the counter reaches zero (returns immediately if it
// already is).
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.sig.Wait(p)
	}
}

// Count returns the current counter value.
func (wg *WaitGroup) Count() int { return wg.count }
