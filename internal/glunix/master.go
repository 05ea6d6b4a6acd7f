package glunix

import (
	"fmt"
	"sort"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
)

// wsState is the master's view of one workstation.
type wsState struct {
	up         bool
	lastHB     sim.Time
	userBusy   bool // user active right now (daemon-reported, thresholded)
	guest      *GProc
	buddy      int  // node holding this workstation's saved user image
	imageSaved bool // user image currently parked on the buddy
	// drained marks a machine removed from service for a hot-swap
	// upgrade: never recruited, existing guest migrated away.
	drained bool
	// cordoned marks a machine unschedulable by operator request: no
	// new guest is placed on it, but an existing guest stays (the
	// non-disruptive half of a drain).
	cordoned bool
	// evictions records when this machine's user was delayed by a
	// departing guest, for the per-day delay limit.
	evictions []sim.Time
}

// MasterStats aggregates global-layer activity.
type MasterStats struct {
	JobsSubmitted int64
	JobsCompleted int64
	Migrations    int64
	Evictions     int64 // user returned to a recruited machine
	Restarts      int64 // job restarts from checkpoint (crash or policy)
	NodesDown     int64
	Rejoins       int64        // recovered workstations re-admitted to the census
	UserDelays    stats.Sample // seconds each returning user waited for their machine
	StalledEvicts int64        // evictions that had to wait for an idle target
	UserDisturbed int64        // IgnoreUser policy: user shared with a guest
	ImageSaves    int64
	ImageRestores int64
	CheckpointOps int64
}

// Master is the GLUnix global resource manager, hosted on node 0.
type Master struct {
	c     *Cluster
	ep    *am.Endpoint
	ws    []wsState // index by node id; 0 unused
	queue []*Job
	jobs  []*Job
	work  *sim.Signal
	st    MasterStats

	pendingEvict []*GProc // paused guests waiting for an idle target
}

type userStateArgs struct {
	ws   int
	busy bool
}

type execArgs struct {
	ws    int
	buddy int
}

type procDoneArgs struct {
	jobID, rank, incarnation int
}

func newMaster(c *Cluster) *Master {
	m := &Master{
		c:    c,
		ep:   c.EPs[0],
		ws:   make([]wsState, c.Cfg.Workstations+1),
		work: sim.NewSignal(c.Eng, "glunix/master"),
	}
	now := c.Eng.Now()
	for i := 1; i < len(m.ws); i++ {
		m.ws[i] = wsState{up: true, lastHB: now}
	}
	m.ep.Register(hHeartbeat, m.onHeartbeat)
	m.ep.Register(hUserState, m.onUserState)
	m.ep.Register(hProcDone, m.onProcDone)
	c.Eng.Spawn("glunix/placer", m.placeLoop)
	c.Eng.Spawn("glunix/hbmon", m.hbMonitor)
	return m
}

// Stats returns a snapshot of master counters.
func (m *Master) Stats() MasterStats { return m.st }

// Submit enqueues a parallel job for placement. It is callable from any
// simulated process or event callback.
func (m *Master) Submit(j *Job) {
	j.Submitted = m.c.Eng.Now()
	j.cluster = m.c
	m.st.JobsSubmitted++
	m.jobs = append(m.jobs, j)
	m.queue = append(m.queue, j)
	m.work.Broadcast()
}

// available lists idle, up, unrecruited workstations in id order,
// excluding drained machines and machines whose user has already been
// delayed the maximum number of times today.
func (m *Master) available() []int {
	var out []int
	now := m.c.Eng.Now()
	for i := 1; i < len(m.ws); i++ {
		s := &m.ws[i]
		if !s.up || s.userBusy || s.guest != nil || s.drained || s.cordoned {
			continue
		}
		if limit := m.c.Cfg.MaxEvictionsPerUserDay; limit > 0 {
			recent := 0
			for _, t := range s.evictions {
				if now-t < 24*sim.Hour {
					recent++
				}
			}
			if recent >= limit {
				continue
			}
		}
		out = append(out, i)
	}
	return out
}

// AvailableCount reports how many workstations are recruitable now.
func (m *Master) AvailableCount() int { return len(m.available()) }

// placeLoop runs forever: retry stalled evictions first (a returning
// user outranks a queued job), then place queued jobs FCFS.
func (m *Master) placeLoop(p *sim.Proc) {
	for {
		progress := false
		// Finish stalled evictions as machines free up.
		for len(m.pendingEvict) > 0 {
			g := m.pendingEvict[0]
			idle := m.available()
			if len(idle) == 0 {
				break
			}
			m.pendingEvict = m.pendingEvict[1:]
			if g.killed || g.job.aborted {
				continue
			}
			m.migrate(p, g, idle[0])
			progress = true
		}
		for len(m.queue) > 0 {
			j := m.queue[0]
			idle := m.available()
			if len(idle) < j.NProcs {
				break
			}
			m.queue = m.queue[1:]
			m.startJob(p, j, idle[:j.NProcs])
			progress = true
		}
		if !progress {
			m.work.Wait(p)
		}
	}
}

// startJob recruits the given workstations and launches the gang.
func (m *Master) startJob(p *sim.Proc, j *Job, nodes []int) {
	sp := m.c.obs.StartSpan("glunix.schedule", -1)
	if sp != 0 {
		m.c.obs.Annotate(sp, fmt.Sprintf("job %d × %d procs", j.ID, j.NProcs))
	}
	defer m.c.obs.EndSpan(sp)
	if j.Started == 0 {
		j.Started = m.c.Eng.Now()
	}
	j.incarnation++
	j.aborted = false
	j.barrier = newGangBarrier(m.c.Eng, j)
	j.doneProcs = 0
	j.procs = make([]*GProc, j.NProcs)
	for rank, ws := range nodes {
		// Recruit: the daemon saves the user's memory image first.
		buddy := m.pickBuddy(ws)
		ok, err := m.ep.Call(p, netsim.NodeID(ws), hExec, execArgs{ws: ws, buddy: buddy}, 48)
		if err != nil || ok != true {
			// Node died (or could not save its image) between the
			// availability check and exec; the heartbeat monitor will
			// handle it. Restart placement.
			m.queue = append([]*Job{j}, m.queue...)
			m.work.Broadcast()
			return
		}
		m.ws[ws].buddy = buddy
		g := newGProc(m.c, j, rank, ws)
		j.procs[rank] = g
		m.ws[ws].guest = g
	}
	for _, g := range j.procs {
		g.start()
	}
}

// pickBuddy selects a node to park a workstation's memory image on: the
// next up node after ws in ring order, so simultaneous recruitment of
// many machines spreads its bulk transfers pairwise around the ring
// instead of incasting one victim.
func (m *Master) pickBuddy(ws int) int {
	n := len(m.ws) - 1 // workstations are 1..n
	for off := 1; off < n; off++ {
		cand := (ws-1+off)%n + 1
		if cand != ws && m.ws[cand].up {
			return cand
		}
	}
	return 0 // fall back to the master host
}

func (m *Master) onHeartbeat(p *sim.Proc, msg am.Msg) (any, int) {
	ws, ok := msg.Arg.(int)
	if !ok || ws <= 0 || ws >= len(m.ws) {
		return nil, 0
	}
	s := &m.ws[ws]
	if !s.up {
		// A heartbeat from a machine we declared down means it rebooted
		// (Cluster.Recover). Re-admit it per policy: fresh console state,
		// no guest, no saved image — recruitable again.
		if m.c.Cfg.Recover == NeverRejoin {
			return nil, 0
		}
		s.up = true
		s.userBusy = false
		s.guest = nil
		s.imageSaved = false
		m.st.Rejoins++
		m.work.Broadcast()
	}
	s.lastHB = m.c.Eng.Now()
	return nil, 0
}

// hbMonitor declares nodes down after HeartbeatMiss silent intervals.
func (m *Master) hbMonitor(p *sim.Proc) {
	interval := m.c.Cfg.HeartbeatInterval
	deadline := interval * sim.Duration(m.c.Cfg.HeartbeatMiss)
	for {
		p.Sleep(interval)
		now := m.c.Eng.Now()
		for i := 1; i < len(m.ws); i++ {
			s := &m.ws[i]
			if s.up && now-s.lastHB > deadline {
				m.markDown(p, i)
			}
		}
	}
}

// markDown handles a crashed workstation: its guest's job restarts from
// checkpoint on other machines.
func (m *Master) markDown(p *sim.Proc, ws int) {
	s := &m.ws[ws]
	s.up = false
	m.st.NodesDown++
	if g := s.guest; g != nil {
		s.guest = nil
		m.restartJob(g.job)
	}
	m.work.Broadcast()
}

// killProcsOn marks every guest proc on ws dead (called by
// Cluster.Crash; discovery still flows through heartbeats).
func (m *Master) killProcsOn(ws int) {
	if g := m.ws[ws].guest; g != nil {
		g.killed = true
		g.resume.Broadcast()
	}
}

// restartJob aborts the current incarnation and requeues the remainder
// of the job, which resumes from its last checkpoint.
func (m *Master) restartJob(j *Job) {
	if j.done || j.aborted {
		return
	}
	j.aborted = true
	m.st.Restarts++
	j.Restarts++
	if j.barrier != nil {
		j.barrier.abort()
	}
	for _, g := range j.procs {
		if g == nil {
			continue
		}
		g.killed = true
		g.resume.Broadcast()
		if g.ws > 0 && g.ws < len(m.ws) && m.ws[g.ws].guest == g {
			m.ws[g.ws].guest = nil
		}
	}
	m.queue = append(m.queue, j)
	m.work.Broadcast()
}

// onUserState reacts to daemon reports of user activity transitions.
func (m *Master) onUserState(p *sim.Proc, msg am.Msg) (any, int) {
	args, ok := msg.Arg.(userStateArgs)
	if !ok || args.ws <= 0 || args.ws >= len(m.ws) {
		return nil, 0
	}
	s := &m.ws[args.ws]
	if !args.busy {
		s.userBusy = false
		m.work.Broadcast()
		return nil, 0
	}
	returnedAt := m.c.Eng.Now()
	s.userBusy = true
	migrated := sim.NewWaitGroup(m.c.Eng, "glunix/evict")
	if g := s.guest; g != nil {
		m.st.Evictions++
		s.evictions = append(s.evictions, returnedAt)
		switch m.c.Cfg.Policy {
		case IgnoreUser:
			m.st.UserDisturbed++
			// Guest stays; user shares the machine.
		case RestartOnReturn:
			s.guest = nil
			m.restartJob(g.job)
		default: // MigrateOnReturn
			s.guest = nil
			g.pause(p)
			// Migrate concurrently with the user's memory restore: the
			// guest image leaves on the workstation's transmit link
			// while the user image arrives on its receive link — full
			// duplex on a switched fabric. The user's wait is governed
			// by the restore, which is what the paper bounds at 4 s.
			migrated.Add(1)
			m.c.Eng.Spawn("glunix/migrate", func(mp *sim.Proc) {
				defer migrated.Done()
				idle := m.available()
				if len(idle) > 0 {
					m.migrate(mp, g, idle[0])
				} else {
					m.st.StalledEvicts++
					m.pendingEvict = append(m.pendingEvict, g)
				}
			})
		}
	}
	// Restore the user's memory image so the machine is exactly as they
	// left it — the paper's guarantee.
	if m.c.Cfg.SaveRestore && s.imageSaved {
		d := m.c.Daemons[args.ws]
		if err := m.c.transferBulk(p, s.buddy, args.ws, m.c.Cfg.UserImageBytes); err == nil {
			s.imageSaved = false
			if d != nil {
				d.imageSaved = false
			}
			m.st.ImageRestores++
		}
	}
	m.st.UserDelays.Add((m.c.Eng.Now() - returnedAt).Seconds())
	if cm := m.c.cm; cm != nil {
		cm.userDelayNs.Observe(int64(m.c.Eng.Now() - returnedAt))
	}
	migrated.Wait(p)
	return nil, 0
}

// migrate moves a paused guest to target and resumes it.
func (m *Master) migrate(p *sim.Proc, g *GProc, target int) {
	began := m.c.Eng.Now()
	sp := m.c.obs.StartSpan("glunix.migrate", g.ws)
	if sp != 0 {
		m.c.obs.Annotate(sp, fmt.Sprintf("job %d rank %d → ws %d", g.job.ID, g.rank, target))
	}
	defer m.c.obs.EndSpan(sp)
	// Recruit the target first (saves its user image if needed).
	buddy := m.pickBuddy(target)
	if _, err := m.ep.Call(p, netsim.NodeID(target), hExec, execArgs{ws: target, buddy: buddy}, 48); err != nil {
		m.c.obs.Annotate(sp, "target exec failed; requeued")
		m.pendingEvict = append(m.pendingEvict, g)
		return
	}
	m.ws[target].buddy = buddy
	if err := m.c.transferBulk(p, g.ws, target, m.c.Cfg.ImageBytes); err != nil {
		// Source died mid-migration: restart from checkpoint.
		m.c.obs.Annotate(sp, "source lost mid-transfer; restarting job")
		m.restartJob(g.job)
		return
	}
	m.st.Migrations++
	if cm := m.c.cm; cm != nil {
		cm.migrateNs.Observe(int64(m.c.Eng.Now() - began))
	}
	g.ws = target
	m.ws[target].guest = g
	g.unpause()
}

// onProcDone marks one gang member finished; the last one completes the
// job and frees its machines.
func (m *Master) onProcDone(p *sim.Proc, msg am.Msg) (any, int) {
	args, ok := msg.Arg.(procDoneArgs)
	if !ok {
		return nil, 0
	}
	var j *Job
	for _, cand := range m.jobs {
		if cand.ID == args.jobID {
			j = cand
			break
		}
	}
	if j == nil || j.done || j.incarnation != args.incarnation {
		return nil, 0
	}
	j.doneProcs++
	if g := j.procs[args.rank]; g != nil && g.ws > 0 && g.ws < len(m.ws) && m.ws[g.ws].guest == g {
		m.ws[g.ws].guest = nil
	}
	if j.doneProcs == j.NProcs {
		j.done = true
		j.Finished = m.c.Eng.Now()
		m.st.JobsCompleted++
	}
	m.work.Broadcast()
	return nil, 0
}

// Drain removes a workstation from service for a hot-swap hardware or
// software upgrade: it is never recruited while drained, and any guest
// process is migrated away first (blocking p until the guest has left
// or been queued for a target). The rest of the cluster is unaffected —
// the paper's contrast with multiprocessors that must be taken down
// whole.
func (m *Master) Drain(p *sim.Proc, ws int) {
	if ws <= 0 || ws >= len(m.ws) {
		return
	}
	s := &m.ws[ws]
	if s.drained {
		// Already drained: the guest (if any) left or is queued for a
		// target. Draining again must not re-pause or re-migrate.
		return
	}
	s.drained = true
	if g := s.guest; g != nil {
		s.guest = nil
		g.pause(p)
		idle := m.available()
		if len(idle) > 0 {
			m.migrate(p, g, idle[0])
		} else {
			m.st.StalledEvicts++
			m.pendingEvict = append(m.pendingEvict, g)
		}
	}
	m.work.Broadcast()
}

// Cordon marks a workstation unschedulable without disturbing its
// current guest: the gentle half of a drain, and the guard an operator
// places before maintenance. Reports whether the state changed.
func (m *Master) Cordon(ws int) bool {
	if ws <= 0 || ws >= len(m.ws) || m.ws[ws].cordoned {
		return false
	}
	m.ws[ws].cordoned = true
	return true
}

// Uncordon returns a cordoned or drained workstation to the schedulable
// pool and kicks placement, so queued jobs can claim it immediately.
// Reports whether the state changed.
func (m *Master) Uncordon(ws int) bool {
	if ws <= 0 || ws >= len(m.ws) {
		return false
	}
	s := &m.ws[ws]
	if !s.cordoned && !s.drained {
		return false
	}
	s.cordoned, s.drained = false, false
	m.work.Broadcast()
	return true
}

// Cordoned reports whether ws is cordoned.
func (m *Master) Cordoned(ws int) bool {
	return ws > 0 && ws < len(m.ws) && m.ws[ws].cordoned
}

// Drained reports whether ws is drained.
func (m *Master) Drained(ws int) bool {
	return ws > 0 && ws < len(m.ws) && m.ws[ws].drained
}

// QueueLen reports how many jobs are waiting for placement.
func (m *Master) QueueLen() int { return len(m.queue) }

// WSStatus is the master's public view of one workstation — the census
// row the control plane lists and describes.
type WSStatus struct {
	ID       int  `json:"id"`
	Up       bool `json:"up"`
	UserBusy bool `json:"userBusy"`
	Cordoned bool `json:"cordoned"`
	Drained  bool `json:"drained"`
	// JobID and Rank identify the guest process (-1/-1 when idle).
	JobID int `json:"jobId"`
	Rank  int `json:"rank"`
	// LastHeartbeat is the virtual time of the last heartbeat received.
	LastHeartbeat sim.Time `json:"lastHeartbeatNs"`
}

// Census snapshots the master's view of every workstation, in id order.
func (m *Master) Census() []WSStatus {
	out := make([]WSStatus, 0, len(m.ws)-1)
	for i := 1; i < len(m.ws); i++ {
		out = append(out, m.wsStatus(i))
	}
	return out
}

// WSInfo returns the census row for one workstation (ok=false when the
// id is out of range).
func (m *Master) WSInfo(ws int) (WSStatus, bool) {
	if ws <= 0 || ws >= len(m.ws) {
		return WSStatus{}, false
	}
	return m.wsStatus(ws), true
}

func (m *Master) wsStatus(ws int) WSStatus {
	s := &m.ws[ws]
	st := WSStatus{
		ID: ws, Up: s.up, UserBusy: s.userBusy,
		Cordoned: s.cordoned, Drained: s.drained,
		JobID: -1, Rank: -1, LastHeartbeat: s.lastHB,
	}
	if g := s.guest; g != nil {
		st.JobID, st.Rank = g.job.ID, g.rank
	}
	return st
}

// debugString summarises master state for failed-test diagnostics.
func (m *Master) debugString() string {
	idle := m.available()
	sort.Ints(idle)
	return fmt.Sprintf("queue=%d pendingEvict=%d idle=%v", len(m.queue), len(m.pendingEvict), idle)
}
