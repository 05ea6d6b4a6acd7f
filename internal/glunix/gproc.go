package glunix

import (
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/sim"
)

// Job is one parallel program: a gang of NProcs processes, each needing
// Work of CPU time, synchronising at a barrier every Grain of progress.
// Many parallel programs "run as slowly as their slowest process" (the
// paper) — the barrier is what makes migration and eviction delays
// visible to the whole gang.
type Job struct {
	ID     int
	NProcs int
	Work   sim.Duration // per-process CPU demand
	Grain  sim.Duration // compute between barriers

	Submitted, Started, Finished sim.Time
	Restarts                     int

	cluster     *Cluster
	incarnation int
	aborted     bool
	done        bool
	ckptDone    sim.Duration // work completed as of the last checkpoint
	doneProcs   int
	procs       []*GProc
	barrier     *gangBarrier
}

// NewJob creates a job; Grain defaults to 100 ms when zero.
func NewJob(id, nprocs int, work, grain sim.Duration) *Job {
	if grain <= 0 {
		grain = 100 * sim.Millisecond
	}
	if nprocs <= 0 {
		nprocs = 1
	}
	return &Job{ID: id, NProcs: nprocs, Work: work, Grain: grain}
}

// Done reports completion.
func (j *Job) Done() bool { return j.done }

// Response is the job's queueing + execution time (0 until finished).
func (j *Job) Response() sim.Duration {
	if !j.done {
		return 0
	}
	return j.Finished - j.Submitted
}

// noteCkpt records rank's checkpointed progress; the job's restart point
// is the minimum across the gang.
func (j *Job) noteCkpt() {
	min := j.Work
	for _, g := range j.procs {
		if g == nil {
			return
		}
		if g.ckpt < min {
			min = g.ckpt
		}
	}
	if min > j.ckptDone {
		j.ckptDone = min
	}
}

// gangBarrier synchronises one incarnation of a gang.
type gangBarrier struct {
	job   *Job
	n     int
	count int
	round int
	sig   *sim.Signal
}

func newGangBarrier(e *sim.Engine, j *Job) *gangBarrier {
	return &gangBarrier{job: j, n: j.NProcs, sig: sim.NewSignal(e, fmt.Sprintf("job%d/barrier", j.ID))}
}

// arrive blocks until the whole gang has arrived; it reports false when
// the incarnation was aborted while waiting.
func (b *gangBarrier) arrive(p *sim.Proc) bool {
	if b.job.aborted {
		return false
	}
	b.count++
	if b.count == b.n {
		b.count = 0
		b.round++
		b.sig.Broadcast()
		return true
	}
	r := b.round
	for b.round == r && !b.job.aborted {
		b.sig.Wait(p)
	}
	return !b.job.aborted
}

// abort releases all waiters with failure.
func (b *gangBarrier) abort() { b.sig.Broadcast() }

// GProc is one member of a gang, currently placed on workstation ws.
type GProc struct {
	c    *Cluster
	job  *Job
	rank int
	inc  int
	ws   int

	paused    bool
	parked    bool
	resume    *sim.Signal
	pauseAck  *sim.Signal
	killed    bool
	progress  sim.Duration // absolute work completed
	ckpt      sim.Duration // progress as of this proc's last checkpoint
	lastCkpt  sim.Time
	migrating bool
}

func newGProc(c *Cluster, j *Job, rank, ws int) *GProc {
	return &GProc{
		c:        c,
		job:      j,
		rank:     rank,
		inc:      j.incarnation,
		ws:       ws,
		resume:   sim.NewSignal(c.Eng, fmt.Sprintf("job%d/r%d/resume", j.ID, rank)),
		pauseAck: sim.NewSignal(c.Eng, fmt.Sprintf("job%d/r%d/ack", j.ID, rank)),
		progress: j.ckptDone,
		ckpt:     j.ckptDone,
	}
}

// start launches the process body.
func (g *GProc) start() {
	g.lastCkpt = g.c.Eng.Now()
	g.c.Eng.Spawn(fmt.Sprintf("job%d/rank%d", g.job.ID, g.rank), g.run)
}

// pause asks the process to stop at its next grain boundary and blocks
// the caller until it has parked (its memory is then stable to copy).
func (g *GProc) pause(p *sim.Proc) {
	g.paused = true
	for !g.parked && !g.killed && !g.job.aborted {
		g.pauseAck.Wait(p)
	}
}

// unpause resumes a parked process.
func (g *GProc) unpause() {
	g.paused = false
	g.resume.Broadcast()
}

func (g *GProc) dead() bool {
	return g.killed || g.job.aborted || g.job.incarnation != g.inc
}

func (g *GProc) run(p *sim.Proc) {
	cfg := g.c.Cfg
	barrier := g.job.barrier
	for g.progress < g.job.Work {
		if g.dead() {
			return
		}
		for g.paused && !g.dead() {
			g.parked = true
			g.pauseAck.Broadcast()
			g.resume.Wait(p)
		}
		g.parked = false
		if g.dead() {
			return
		}
		grain := g.job.Grain
		if rem := g.job.Work - g.progress; rem < grain {
			grain = rem
		}
		g.c.Nodes[g.ws].CPU.Compute(p, grain)
		g.progress += grain
		if cfg.BarrierOverhead > 0 {
			g.c.Nodes[g.ws].CPU.Compute(p, cfg.BarrierOverhead)
		}
		if !barrier.arrive(p) {
			return
		}
		if cfg.CheckpointInterval > 0 && p.Now()-g.lastCkpt >= cfg.CheckpointInterval {
			g.checkpoint(p)
		}
	}
	// Report completion to the master over the network.
	_, _ = g.c.EPs[g.ws].Call(p, netsim.NodeID(0), hProcDone,
		procDoneArgs{jobID: g.job.ID, rank: g.rank, incarnation: g.inc}, 32)
}

// checkpoint streams the process image to the buddy node and records the
// restart point.
func (g *GProc) checkpoint(p *sim.Proc) {
	sp := g.c.obs.StartSpan("glunix.checkpoint", g.ws)
	if sp != 0 {
		g.c.obs.Annotate(sp, fmt.Sprintf("job %d rank %d", g.job.ID, g.rank))
	}
	defer g.c.obs.EndSpan(sp)
	buddy := g.c.Master.pickBuddy(g.ws)
	if err := g.c.transferBulk(p, g.ws, buddy, g.c.Cfg.ImageBytes); err != nil {
		return
	}
	g.ckpt = g.progress
	g.lastCkpt = p.Now()
	g.job.noteCkpt()
	g.c.Master.st.CheckpointOps++
}
