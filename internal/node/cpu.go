package node

import (
	"github.com/nowproject/now/internal/sim"
)

// CPU is a round-robin timeslice scheduler, modelling the local Unix
// scheduler of one workstation. Simulated activities call Compute to
// burn CPU time; concurrent requests share the processor a quantum at a
// time, which is exactly the behaviour that destroys fine-grain parallel
// programs under "local scheduling" in the paper's Figure 4.
type CPU struct {
	eng        *sim.Engine
	name       string
	quantum    sim.Duration
	ctxSwitch  sim.Duration
	queue      []*cpuTask
	current    *cpuTask
	preempted  bool
	dispatcher *sim.Proc
	work       *sim.Signal
	sys        *sim.Resource // interrupt-context work, not timesliced

	busy    sim.Duration
	sysBusy sim.Duration
}

type cpuTask struct {
	remaining sim.Duration
	done      *sim.Signal
	finished  bool
}

func newCPU(e *sim.Engine, name string, cfg Config) *CPU {
	c := &CPU{
		eng:       e,
		name:      name,
		quantum:   cfg.Quantum,
		ctxSwitch: cfg.ContextSwitch,
		work:      sim.NewSignal(e, name+"/work"),
		sys:       sim.NewResource(e, name+"/sys", 1),
	}
	c.dispatcher = e.Spawn(name+"/sched", c.dispatch)
	return c
}

// Compute burns d of CPU time as a timesliced task, returning when the
// task has accumulated d of processor time under contention.
func (c *CPU) Compute(p *sim.Proc, d sim.Duration) {
	if d <= 0 {
		return
	}
	t := &cpuTask{remaining: d, done: sim.NewSignal(c.eng, c.name+"/task")}
	c.queue = append(c.queue, t)
	c.work.Broadcast()
	for !t.finished {
		t.done.Wait(p)
	}
}

// ComputeSystem burns d of CPU in interrupt context: kernel or
// user-level protocol processing that preempts timesliced work rather
// than queueing behind a 100 ms quantum. Concurrent system work
// serialises FIFO on the node. (The cycles stolen from the running
// timeslice are not re-charged to it; system work in this model is
// microseconds against quanta of milliseconds.)
func (c *CPU) ComputeSystem(p *sim.Proc, d sim.Duration) {
	if d <= 0 {
		return
	}
	c.sys.Use(p, 1, d)
	c.sysBusy += d
}

func (c *CPU) dispatch(p *sim.Proc) {
	for {
		if len(c.queue) == 0 {
			c.work.Wait(p)
			continue
		}
		t := c.queue[0]
		c.queue = append(c.queue[:0], c.queue[1:]...)
		// A context switch is charged only when the previous occupant was
		// preempted mid-task (timeslice rotation between competing
		// processes). Back-to-back short tasks on an otherwise idle CPU —
		// user-level protocol processing — pay nothing, as they would
		// with polling-based Active Messages.
		if c.preempted && c.current != t && c.ctxSwitch > 0 {
			p.Sleep(c.ctxSwitch)
		}
		c.preempted = false
		c.current = t
		c.runTask(p, t)
		if t.remaining <= 0 {
			t.finished = true
			t.done.Broadcast()
		}
	}
}

// runTask executes t until it completes or is preempted (at which point
// it is requeued). An uncontended task runs in one interruptible
// stretch — the simulation equivalent of "nothing to timeslice against"
// — so long computations cost O(1) events instead of O(length/quantum).
// A newly arriving competitor interrupts the stretch, the running task
// receives one quantum of grace (the slice a real scheduler would let
// it finish), and rotation resumes.
func (c *CPU) runTask(p *sim.Proc, t *cpuTask) {
	for t.remaining > 0 {
		if len(c.queue) > 0 {
			// Contended: classic quantum slice.
			slice := c.quantum
			if t.remaining < slice {
				slice = t.remaining
			}
			p.Sleep(slice)
			c.busy += slice
			t.remaining -= slice
			if t.remaining > 0 {
				c.preempted = true
				c.queue = append(c.queue, t)
			}
			return
		}
		start := c.eng.Now()
		signaled := c.work.WaitTimeout(p, t.remaining)
		elapsed := c.eng.Now() - start
		c.busy += elapsed
		t.remaining -= elapsed
		if !signaled || t.remaining <= 0 {
			return // ran to completion undisturbed
		}
		// Competition arrived mid-stretch: grant one quantum of grace,
		// then rotate.
		grace := c.quantum
		if t.remaining < grace {
			grace = t.remaining
		}
		p.Sleep(grace)
		c.busy += grace
		t.remaining -= grace
		if t.remaining > 0 {
			c.preempted = true
			c.queue = append(c.queue, t)
		}
		return
	}
}

// BusyTime returns the total CPU time consumed by tasks, including
// interrupt-context (system) work.
func (c *CPU) BusyTime() sim.Duration { return c.busy + c.sysBusy }
