package glunix

import (
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
)

// Coscheduler implements gang scheduling in the style of Ousterhout's
// matrix method: global time is sliced into slots, each slot is assigned
// to one parallel job, and during its slot that job's processes run
// simultaneously on every node. It steers each workstation's local
// scheduler through a class filter; the system class (protocol daemons)
// is always eligible.
//
// Figure 4's "local scheduling" baseline is simply not starting a
// Coscheduler: each node's Unix scheduler then timeslices the competing
// jobs independently, and tightly coupled programs fall apart.
type Coscheduler struct {
	eng     *sim.Engine
	cpus    []*node.CPU
	quantum sim.Duration
	jobs    []string
	slot    int
	running bool
	stopped bool
	obs     *obs.Registry // nil unless Instrument attached a registry
	slots   *obs.Counter  // glunix.cosched.slots
}

// NewCoscheduler creates a gang scheduler over the given CPUs with the
// given slot length (100 ms when zero, a typical Unix quantum).
func NewCoscheduler(e *sim.Engine, cpus []*node.CPU, quantum sim.Duration) *Coscheduler {
	if quantum <= 0 {
		quantum = 100 * sim.Millisecond
	}
	return &Coscheduler{eng: e, cpus: cpus, quantum: quantum}
}

// SetJobs replaces the rotation with the given job classes. An empty set
// opens all CPUs (no filter).
func (cs *Coscheduler) SetJobs(classes []string) {
	cs.jobs = append([]string(nil), classes...)
	if cs.slot >= len(cs.jobs) {
		cs.slot = 0
	}
	cs.apply()
}

// Instrument attaches observability: a glunix.cosched.slots counter and
// one glunix.cosched.slot span per occupied rotation slot (annotated
// with the owning job class). Call before Start; a nil registry is a
// no-op. Slot spans are per-quantum, so a long coscheduled run records
// many of them — traces are opt-in for exactly this reason.
func (cs *Coscheduler) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	cs.obs = r
	cs.slots = r.Counter("glunix.cosched.slots")
}

// Start begins slot rotation.
func (cs *Coscheduler) Start() {
	if cs.running {
		return
	}
	cs.running = true
	cs.eng.Spawn("glunix/cosched", func(p *sim.Proc) {
		for !cs.stopped {
			cs.apply()
			var sp obs.SpanID
			if cs.obs != nil && len(cs.jobs) > 0 {
				cs.slots.Inc()
				sp = cs.obs.StartSpan("glunix.cosched.slot", -1)
				cs.obs.Annotate(sp, cs.jobs[cs.slot])
			}
			p.Sleep(cs.quantum)
			cs.obs.EndSpan(sp)
			if len(cs.jobs) > 0 {
				cs.slot = (cs.slot + 1) % len(cs.jobs)
			}
		}
	})
}

// Stop ends rotation and opens all CPUs.
func (cs *Coscheduler) Stop() {
	cs.stopped = true
	cs.jobs = nil
	cs.apply()
}

func (cs *Coscheduler) apply() {
	if len(cs.jobs) == 0 {
		for _, c := range cs.cpus {
			c.SetFilter(nil)
		}
		return
	}
	current := cs.jobs[cs.slot]
	for _, c := range cs.cpus {
		c.SetFilter(func(class string) bool { return class == current })
	}
}
