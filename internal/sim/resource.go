package sim

// Resource models a server with integer capacity — a CPU, a disk arm, a
// shared Ethernet segment, a switch port. Processes Acquire units, hold
// them for some virtual time, and Release them; contention produces the
// queueing delays the NOW paper reasons about. Waiters are served FIFO.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	queue    queue[resWaiter]

	// Usage accounting for utilisation reports.
	busy       Time // integral of inUse over time, in unit·ns
	lastChange Time
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource creates a resource with the given capacity (units > 0).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		capacity = 1
	}
	return &Resource{eng: e, name: name, capacity: capacity}
}

func (r *Resource) account() {
	now := r.eng.Now()
	r.busy += Time(int64(r.inUse) * int64(now-r.lastChange))
	r.lastChange = now
}

// Acquire blocks p until n units are available and takes them.
func (r *Resource) Acquire(p *Proc, n int) {
	r.acquireDeadline(p, n, -1)
}

// AcquireTimeout is Acquire with a deadline; it reports whether the
// units were obtained (false means the wait timed out and nothing is
// held).
func (r *Resource) AcquireTimeout(p *Proc, n int, d Duration) bool {
	return r.acquireDeadline(p, n, d)
}

func (r *Resource) acquireDeadline(p *Proc, n int, d Duration) bool {
	// Guarded so the variadic boxing only happens on the failure path;
	// an unconditional invariant call allocates per acquire.
	if n <= 0 || n > r.capacity {
		r.eng.invariant(false, "resource %s: acquire %d of %d", r.name, n, r.capacity)
	}
	if r.queue.len() == 0 && r.inUse+n <= r.capacity {
		r.account()
		r.inUse += n
		return true
	}
	r.queue.push(resWaiter{p: p, n: n})
	if p.parkWait(d) {
		r.remove(p)
		return false
	}
	return true
}

// Release returns n units and grants queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		r.eng.invariant(false, "resource %s: release %d with %d in use", r.name, n, r.inUse)
	}
	r.account()
	r.inUse -= n
	r.grant()
}

func (r *Resource) grant() {
	for r.queue.len() > 0 {
		w := *r.queue.at(0)
		if r.inUse+w.n > r.capacity {
			return
		}
		r.queue.pop()
		r.account()
		r.inUse += w.n
		w.p.grant()
	}
}

func (r *Resource) remove(p *Proc) {
	for i := 0; i < r.queue.len(); i++ {
		if r.queue.at(i).p == p {
			r.queue.removeAt(i)
			return
		}
	}
}

// Use acquires n units, holds them for d, and releases them: the basic
// "service time at a station" operation.
func (r *Resource) Use(p *Proc, n int, d Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// Utilization reports the time-averaged fraction of capacity in use
// since the engine started.
func (r *Resource) Utilization() float64 {
	now := r.eng.Now()
	if now == 0 {
		return 0
	}
	busy := r.busy + Time(int64(r.inUse)*int64(now-r.lastChange))
	return float64(busy) / (float64(now) * float64(r.capacity))
}
