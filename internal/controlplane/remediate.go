package controlplane

import (
	"fmt"

	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
)

// Self-healing: a periodic health sweep over the obs-visible state of
// the stack that closes the loop the operator would otherwise close by
// hand. Two remediations are implemented, matching the drain story:
//
//   - a workstation that has been down past a grace period is cordoned
//     so the master stops trying to place work there; once it has been
//     back up and stable it is uncordoned, and the wake-up that
//     uncordon broadcasts re-coschedules queued jobs onto it.
//   - a degraded xFS stripe (a member marked failed) triggers an
//     automatic repair: manager roles are handed off the dead node,
//     then its data is reconstructed onto the next hot spare — the
//     rebuild-before-rejoin ordering the tests pin down.
//
// The sweep runs as an ordinary engine proc, so remediation is part of
// the deterministic event order like everything else.

// RemediationPolicy tunes the self-healing loop.
type RemediationPolicy struct {
	// Interval is the health-sweep period.
	Interval sim.Duration
	// DownGrace is how long a workstation must be down before it is
	// cordoned (transient reboots heal themselves; don't flap).
	DownGrace sim.Duration
	// StableFor is how long a recovered workstation must stay up
	// before a remediation cordon is lifted.
	StableFor sim.Duration
	// AutoCordon enables the workstation cordon/uncordon remediation.
	AutoCordon bool
	// AutoRebuild enables the degraded-stripe rebuild remediation.
	AutoRebuild bool
}

// DefaultRemediationPolicy matches the AV2 study: sweep every 15s,
// cordon after 30s down, uncordon after 60s stable, both remediations
// on.
func DefaultRemediationPolicy() RemediationPolicy {
	return RemediationPolicy{
		Interval:    15 * sim.Second,
		DownGrace:   30 * sim.Second,
		StableFor:   60 * sim.Second,
		AutoCordon:  true,
		AutoRebuild: true,
	}
}

// Remediator runs the self-healing sweep. Build with NewRemediator,
// arm with Start (once), and gate with SetEnabled — a disabled
// remediator keeps sweeping time but takes no action, so enabling it
// mid-run (the `remediate on` scenario verb) needs no new proc.
type Remediator struct {
	cp      *ControlPlane
	pol     RemediationPolicy
	enabled bool
	started bool

	downSince  map[int]sim.Time // ws → when first seen down
	upSince    map[int]sim.Time // ws → when first seen back up
	cordonedBy map[int]bool     // cordons we placed (never lift an operator's)
	rebuilding bool             // one stripe rebuild in flight at a time

	enabledG  *obs.Gauge
	checks    *obs.Counter
	actions   *obs.Counter
	cordons   *obs.Counter
	uncordons *obs.Counter
	rebuilds  *obs.Counter
	rberrors  *obs.Counter
}

// NewRemediator builds a (disabled) remediator over cp. A zero policy
// means DefaultRemediationPolicy; a partially-filled one is taken as
// given (so a policy with only AutoRebuild set really does skip the
// cordon remediation) with only the sweep interval defaulted.
func NewRemediator(cp *ControlPlane, pol RemediationPolicy) *Remediator {
	if pol == (RemediationPolicy{}) {
		pol = DefaultRemediationPolicy()
	}
	if pol.Interval <= 0 {
		pol.Interval = DefaultRemediationPolicy().Interval
	}
	r := cp.cfg.Registry
	return &Remediator{
		cp:         cp,
		pol:        pol,
		downSince:  make(map[int]sim.Time),
		upSince:    make(map[int]sim.Time),
		cordonedBy: make(map[int]bool),
		enabledG:   r.Gauge("remediate.enabled"),
		checks:     r.Counter("remediate.checks"),
		actions:    r.Counter("remediate.actions"),
		cordons:    r.Counter("remediate.cordons"),
		uncordons:  r.Counter("remediate.uncordons"),
		rebuilds:   r.Counter("remediate.rebuilds"),
		rberrors:   r.Counter("remediate.rebuild.errors"),
	}
}

// SetEnabled turns remediation on or off; the sweep proc keeps running
// either way so toggling is cheap and deterministic.
func (r *Remediator) SetEnabled(on bool) {
	r.enabled = on
	if on {
		r.enabledG.Set(1)
	} else {
		r.enabledG.Set(0)
	}
}

// Start spawns the sweep proc. Call once, before or during the run.
func (r *Remediator) Start() {
	if r.started {
		return
	}
	r.started = true
	r.cp.cfg.Engine.Spawn("controlplane/remediator", func(p *sim.Proc) {
		for {
			p.Sleep(r.pol.Interval)
			if !r.enabled {
				continue
			}
			r.checks.Inc()
			r.sweepCluster()
			r.sweepStorage()
		}
	})
}

// sweepCluster tracks workstation up/down transitions and applies the
// cordon-after-grace / uncordon-after-stable policy.
func (r *Remediator) sweepCluster() {
	if !r.pol.AutoCordon {
		return
	}
	now := r.cp.cfg.Engine.Now()
	m := r.cp.cfg.Cluster.Master
	for _, ws := range m.Census() {
		id := ws.ID
		if !ws.Up {
			delete(r.upSince, id)
			if _, seen := r.downSince[id]; !seen {
				r.downSince[id] = now
			}
			if !ws.Cordoned && now-r.downSince[id] >= r.pol.DownGrace {
				if r.cp.Cordon(id) == nil {
					r.cordonedBy[id] = true
					r.cordons.Inc()
					r.actions.Inc()
				}
			}
			continue
		}
		delete(r.downSince, id)
		if _, seen := r.upSince[id]; !seen {
			r.upSince[id] = now
		}
		if ws.Cordoned && r.cordonedBy[id] && now-r.upSince[id] >= r.pol.StableFor {
			if r.cp.Uncordon(id) == nil {
				delete(r.cordonedBy, id)
				r.uncordons.Inc()
				r.actions.Inc()
			}
		}
	}
}

// sweepStorage repairs a degraded xFS stripe: one rebuild in flight at
// a time, oldest failed member first, manager handoff before the
// rebuild so metadata service never waits on the dead node.
func (r *Remediator) sweepStorage() {
	if !r.pol.AutoRebuild || r.rebuilding {
		return
	}
	sys := r.cp.cfg.XFS
	if sys == nil {
		return
	}
	failed := sys.FailedStores()
	if len(failed) == 0 || len(r.cp.cfg.XFSTarget.Spares()) == 0 {
		return
	}
	node := failed[0]
	r.rebuilding = true
	r.actions.Inc()
	// The rebuild streams reconstruction I/O, so it gets its own proc
	// rather than stalling the sweep.
	r.cp.cfg.Engine.Spawn(fmt.Sprintf("controlplane/remediate-rebuild-%d", node), func(p *sim.Proc) {
		defer func() { r.rebuilding = false }()
		sp := r.cp.cfg.Registry.StartSpan("remediate.rebuild", node)
		defer r.cp.cfg.Registry.EndSpan(sp)
		if moved := sys.HandoffManagers(node); moved > 0 {
			r.cp.cfg.Registry.Annotate(sp, fmt.Sprintf("%d manager(s) handed off first", moved))
		}
		if _, err := r.cp.cfg.XFSTarget.RebuildDisk(p, node, -1); err != nil {
			r.rberrors.Inc()
			r.cp.cfg.Registry.Annotate(sp, "error: "+err.Error())
			return
		}
		r.rebuilds.Inc()
		r.cp.cfg.Registry.Annotate(sp, "stripe whole again")
	})
}
