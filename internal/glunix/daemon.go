package glunix

import (
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// Daemon is the per-workstation GLUnix agent: it heartbeats to the
// master, watches the console for user activity, applies the one-minute
// idleness rule, and performs the memory save step of recruitment.
type Daemon struct {
	c  *Cluster
	ws int
	ep *am.Endpoint

	userActive bool
	crashed    bool
	imageSaved bool
	idleTimer  sim.Timer
	seq        int64 // user-transition sequence, cancels stale idle reports
}

func newDaemon(c *Cluster, ws int) *Daemon {
	d := &Daemon{c: c, ws: ws, ep: c.EPs[ws]}
	d.ep.Register(hExec, d.onExec)
	c.Eng.Spawn(fmt.Sprintf("glunix/daemon%d", ws), d.heartbeatLoop)
	return d
}

func (d *Daemon) heartbeatLoop(p *sim.Proc) {
	for !d.crashed {
		d.ep.SendAsync(p, netsim.NodeID(0), hHeartbeat, d.ws, 16)
		p.Sleep(d.c.Cfg.HeartbeatInterval)
	}
}

// SetUserActive feeds console activity into the daemon (driven by the
// workstation activity trace). Transitions to active are reported to the
// master immediately; transitions to idle only after IdleThreshold of
// continuous quiet — the paper's definition of an available machine.
func (d *Daemon) SetUserActive(active bool) {
	if d.crashed || active == d.userActive {
		return
	}
	d.userActive = active
	d.seq++
	seq := d.seq
	d.idleTimer.Stop()
	if active {
		d.notify(true)
		return
	}
	d.idleTimer = d.c.Eng.After(d.c.Cfg.IdleThreshold, func() {
		if d.seq == seq && !d.userActive && !d.crashed {
			d.notify(false)
		}
	})
}

// notify reports a user-state transition to the master from a transient
// process (the daemon must keep heartbeating meanwhile).
func (d *Daemon) notify(busy bool) {
	d.c.Eng.Spawn(fmt.Sprintf("glunix/daemon%d/notify", d.ws), func(p *sim.Proc) {
		_, _ = d.ep.Call(p, netsim.NodeID(0), hUserState, userStateArgs{ws: d.ws, busy: busy}, 24)
	})
}

// onExec handles recruitment: before any guest arrives, park the user's
// memory image on the designated buddy so the machine can be returned
// exactly as it was left.
func (d *Daemon) onExec(p *sim.Proc, m am.Msg) (any, int) {
	args, ok := m.Arg.(execArgs)
	if !ok {
		return false, 1
	}
	if d.c.Cfg.SaveRestore && !d.imageSaved {
		if err := d.c.transferBulk(p, d.ws, args.buddy, d.c.Cfg.UserImageBytes); err != nil {
			return false, 1
		}
		d.imageSaved = true
		d.c.Master.ws[d.ws].imageSaved = true
		d.c.Master.st.ImageSaves++
	}
	return true, 1
}
