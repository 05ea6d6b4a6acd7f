package sim

// event is a scheduled callback. Events are ordered by (at, seq): the
// sequence number breaks ties deterministically in FIFO order of
// scheduling, which is what makes runs reproducible.
//
// Events are pooled: the engine recycles popped events through a free
// list, and gen counts how many lifetimes the struct has been through so
// that stale Timer handles (see below) can detect recycling.
type event struct {
	at        Time
	seq       uint64
	gen       uint64
	fn        func()
	afn       func(any) // arg-carrying callback: fn and afn are mutually exclusive
	arg       any       // payload for afn; rides in the pooled event, no closure
	proc      *Proc     // typed wake fast path: resume proc directly, no closure
	timeout   bool      // wake carries the timeout flag (deadline fired)
	cancelled bool
}

// Timer is a handle to a scheduled event that can be cancelled before it
// fires. The zero value is not useful; Timers are produced by the
// engine's scheduling methods.
//
// A Timer pins (event, generation): once the event fires or is recycled
// for a later scheduling, the generation moves on and the handle goes
// permanently inert, so holding a Timer across pool recycling is safe
// (no ABA — Stop can never cancel the struct's next occupant).
type Timer struct {
	ev  *event
	gen uint64
}

// Stop cancels the timer. It reports whether the cancellation happened
// before the event fired. Stopping an already-fired or already-stopped
// timer is a no-op returning false.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.cancelled {
		return false
	}
	ev.cancelled = true
	// Drop the payload now rather than when the cancelled event is
	// eventually popped, so the closure (and everything it captures)
	// is not retained for the remaining queue lifetime of the event.
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.proc = nil
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled
}

// eventHeap is a 4-ary min-heap of events keyed by (at, seq). It is
// hand-rolled rather than using container/heap to avoid interface boxing
// on the engine's hottest path, and 4-ary rather than binary because the
// shallower tree halves the levels touched per sift — fewer dependent
// cache misses per push/pop on large queues.
type eventHeap struct {
	items []*event
}

func (h *eventHeap) len() int { return len(h.items) }

func (h *eventHeap) push(ev *event) {
	h.items = append(h.items, ev)
	h.up(len(h.items) - 1)
}

func (h *eventHeap) pop() *event {
	n := len(h.items)
	top := h.items[0]
	last := h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	if n > 1 {
		h.items[0] = last
		h.down(0)
	}
	return top
}

func (h *eventHeap) peek() *event { return h.items[0] }

func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// up sifts the hole at i towards the root, writing the moved element
// once at its final slot instead of swapping at every level.
func (h *eventHeap) up(i int) {
	items := h.items
	ev := items[i]
	for i > 0 {
		pi := (i - 1) / 4
		p := items[pi]
		if !less(ev, p) {
			break
		}
		items[i] = p
		i = pi
	}
	items[i] = ev
}

func (h *eventHeap) down(i int) {
	items := h.items
	n := len(items)
	ev := items[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		end := first + 4
		if end > n {
			end = n
		}
		best, bestEv := first, items[first]
		for c := first + 1; c < end; c++ {
			if less(items[c], bestEv) {
				best, bestEv = c, items[c]
			}
		}
		if !less(bestEv, ev) {
			break
		}
		items[i] = bestEv
		i = best
	}
	items[i] = ev
}
