package sim

// Mailbox is an unbounded FIFO channel between simulated processes. It
// is the building block for NIC receive queues, RPC reply slots, and
// scheduler run queues. Senders never block (bounded behaviour such as
// NIC buffer overflow is modelled explicitly by the protocol layers,
// which is where the paper's Column benchmark loses). Receivers block,
// optionally with a deadline.
type Mailbox[T any] struct {
	eng     *Engine
	name    string
	items   queue[T]
	waiters queue[*Proc]
	// handed holds the values Put gave to woken receivers that have not
	// run yet. Each receiver takes its own entry when it resumes.
	handed queue[handoff[T]]
}

type handoff[T any] struct {
	p *Proc
	v T
}

// NewMailbox creates an empty mailbox on e.
func NewMailbox[T any](e *Engine, name string) *Mailbox[T] {
	return &Mailbox[T]{eng: e, name: name}
}

// Put deposits v, waking the longest-waiting receiver if any. It never
// blocks and may be called from event callbacks as well as processes.
func (m *Mailbox[T]) Put(v T) {
	if m.waiters.len() > 0 {
		p := m.waiters.pop()
		m.handed.push(handoff[T]{p: p, v: v})
		p.grant()
		return
	}
	m.items.push(v)
}

// Get blocks p until an item is available and returns it.
func (m *Mailbox[T]) Get(p *Proc) T {
	v, _ := m.getDeadline(p, -1)
	return v
}

// GetTimeout is Get with a deadline; ok is false when the deadline fired
// first (and no item was consumed).
func (m *Mailbox[T]) GetTimeout(p *Proc, d Duration) (v T, ok bool) {
	return m.getDeadline(p, d)
}

func (m *Mailbox[T]) getDeadline(p *Proc, d Duration) (v T, ok bool) {
	if m.items.len() > 0 {
		return m.items.pop(), true
	}
	m.waiters.push(p)
	if p.parkWait(d) {
		removeProc(&m.waiters, p)
		return v, false
	}
	// Woken receivers run in the order Put woke them, so p's entry is
	// normally the front one.
	for i := 0; i < m.handed.len(); i++ {
		if h := m.handed.at(i); h.p == p {
			v = h.v
			m.handed.removeAt(i)
			return v, true
		}
	}
	panic("sim: mailbox " + m.name + ": receiver woken without a value")
}

// TryGet returns an item without blocking; ok reports success.
func (m *Mailbox[T]) TryGet() (v T, ok bool) {
	if m.items.len() == 0 {
		return v, false
	}
	return m.items.pop(), true
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return m.items.len() }
