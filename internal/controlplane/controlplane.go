// Package controlplane turns the simulated NOW from a batch experiment
// into an operated cluster: one object wraps the live glunix cluster,
// the xFS installation, the fault injector and the obs registry, and
// exposes the day-2 operator surface — census, cordon/uncordon, drain,
// live fault injection, metric/span streaming — plus a self-healing
// remediation loop (remediate.go) and a wall-clock server mode with an
// HTTP/JSON endpoint (server.go).
//
// Everything here runs *inside* the simulation: operator actions are
// ordinary engine events, so an operated run is exactly as
// deterministic as an unoperated one. The only concurrency is in the
// Server, which serializes all access onto its drive goroutine.
package controlplane

import (
	"errors"
	"fmt"
	"strings"

	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/xfs"
)

// Config wires a ControlPlane to a running stack. Engine, Cluster and
// Injector are required; XFSTarget is required with XFS. A nil XFS
// disables the storage surface, a nil Registry disables metrics and
// spans. The injector and target are the stack's own fault pipeline,
// shared with its fault plan (internal/stack builds them once).
type Config struct {
	Engine    *sim.Engine
	Cluster   *glunix.Cluster
	XFS       *xfs.System
	XFSTarget *faults.XFSTarget
	Injector  *faults.Injector
	Registry  *obs.Registry
}

// NodeStatus describes one workstation to the operator.
type NodeStatus = glunix.WSStatus

// StoreStatus describes one xFS node to the operator.
type StoreStatus struct {
	Node     int   `json:"node"`
	Down     bool  `json:"down"`
	Stripe   bool  `json:"stripe"`   // active stripe member
	Failed   bool  `json:"failed"`   // marked failed, awaiting rebuild
	Spare    bool  `json:"spare"`    // in the unconsumed hot-spare pool
	Managers []int `json:"managers"` // manager indexes hosted here
}

// ClusterStatus is the one-line summary ("nowctl status").
type ClusterStatus struct {
	VirtualNs    sim.Time `json:"virtualNs"`
	Workstations int      `json:"workstations"`
	Up           int      `json:"up"`
	Cordoned     int      `json:"cordoned"`
	Drained      int      `json:"drained"`
	QueueLen     int      `json:"queueLen"`
	XFSNodes     int      `json:"xfsNodes"`
	FailedStores []int    `json:"failedStores,omitempty"`
	SparesLeft   int      `json:"sparesLeft"`
}

// ControlPlane is the in-process operator API. All methods must run on
// the engine's goroutine (directly in tests and scenarios, via the
// Server's drive loop when serving) — the stack underneath is
// single-threaded by design.
type ControlPlane struct {
	cfg Config

	commands  *obs.Counter
	cordons   *obs.Counter
	uncordons *obs.Counter
	drains    *obs.Counter
	sdrains   *obs.Counter
	live      *obs.Counter
	snapshots *obs.Counter

	draining map[int]bool // ws drains in flight (DrainAsync)
}

// New builds a control plane over cfg.
func New(cfg Config) (*ControlPlane, error) {
	if cfg.Engine == nil || cfg.Cluster == nil || cfg.Injector == nil {
		return nil, errors.New("controlplane: Engine, Cluster and Injector are required")
	}
	if cfg.XFS != nil && cfg.XFSTarget == nil {
		return nil, errors.New("controlplane: an xFS installation needs its XFSTarget")
	}
	cp := &ControlPlane{
		cfg:      cfg,
		draining: make(map[int]bool),
	}
	r := cfg.Registry
	cp.commands = r.Counter("cp.commands")
	cp.cordons = r.Counter("cp.cordons")
	cp.uncordons = r.Counter("cp.uncordons")
	cp.drains = r.Counter("cp.drains")
	cp.sdrains = r.Counter("cp.drains.storage")
	cp.live = r.Counter("cp.faults.live")
	cp.snapshots = r.Counter("cp.snapshots")
	// cp.cordoned is a census of the master's cordon flags, read live.
	c := cfg.Cluster
	r.GaugeFunc("cp.cordoned", func() int64 {
		var n int64
		for ws := 1; ws <= c.Cfg.Workstations; ws++ {
			if c.Master.Cordoned(ws) {
				n++
			}
		}
		return n
	})
	return cp, nil
}

// Engine returns the engine the control plane operates on.
func (cp *ControlPlane) Engine() *sim.Engine { return cp.cfg.Engine }

// Registry returns the obs registry (may be nil).
func (cp *ControlPlane) Registry() *obs.Registry { return cp.cfg.Registry }

// Now returns the current virtual time.
func (cp *ControlPlane) Now() sim.Time { return cp.cfg.Engine.Now() }

// Nodes lists every workstation's status (the glunix census).
func (cp *ControlPlane) Nodes() []NodeStatus {
	cp.commands.Inc()
	return cp.cfg.Cluster.Master.Census()
}

// Node describes one workstation.
func (cp *ControlPlane) Node(ws int) (NodeStatus, error) {
	cp.commands.Inc()
	st, ok := cp.cfg.Cluster.Master.WSInfo(ws)
	if !ok {
		return NodeStatus{}, fmt.Errorf("controlplane: workstation %d out of range", ws)
	}
	return st, nil
}

// Storage lists every xFS node's status; nil without an installation.
func (cp *ControlPlane) Storage() []StoreStatus {
	cp.commands.Inc()
	sys := cp.cfg.XFS
	if sys == nil {
		return nil
	}
	stripe := make(map[int]bool)
	for _, n := range sys.StripeMembers() {
		stripe[n] = true
	}
	failed := make(map[int]bool)
	for _, n := range sys.FailedStores() {
		failed[n] = true
	}
	spare := make(map[int]bool)
	for _, n := range cp.cfg.XFSTarget.Spares() {
		spare[n] = true
	}
	out := make([]StoreStatus, sys.Nodes())
	for n := range out {
		out[n] = StoreStatus{
			Node:     n,
			Down:     sys.NodeDown(n),
			Stripe:   stripe[n],
			Failed:   failed[n],
			Spare:    spare[n],
			Managers: sys.ManagersOn(n),
		}
	}
	return out
}

// Status summarizes the whole cluster.
func (cp *ControlPlane) Status() ClusterStatus {
	cp.commands.Inc()
	m := cp.cfg.Cluster.Master
	st := ClusterStatus{
		VirtualNs: cp.cfg.Engine.Now(),
		QueueLen:  m.QueueLen(),
	}
	for _, ws := range m.Census() {
		st.Workstations++
		if ws.Up {
			st.Up++
		}
		if ws.Cordoned {
			st.Cordoned++
		}
		if ws.Drained {
			st.Drained++
		}
	}
	if sys := cp.cfg.XFS; sys != nil {
		st.XFSNodes = sys.Nodes()
		st.FailedStores = sys.FailedStores()
		st.SparesLeft = len(cp.cfg.XFSTarget.Spares())
	}
	return st
}

// Cordon marks a workstation unschedulable without disturbing what is
// already running on it.
func (cp *ControlPlane) Cordon(ws int) error {
	cp.commands.Inc()
	if !cp.cfg.Cluster.Master.Cordon(ws) {
		if cp.cfg.Cluster.Master.Cordoned(ws) {
			return fmt.Errorf("controlplane: workstation %d already cordoned", ws)
		}
		return fmt.Errorf("controlplane: workstation %d out of range", ws)
	}
	cp.cordons.Inc()
	return nil
}

// Uncordon clears a cordon (and a completed drain), making the
// workstation schedulable again — the master is woken so queued jobs
// can re-coschedule onto it immediately.
func (cp *ControlPlane) Uncordon(ws int) error {
	cp.commands.Inc()
	if !cp.cfg.Cluster.Master.Uncordon(ws) {
		return fmt.Errorf("controlplane: workstation %d not cordoned or drained", ws)
	}
	cp.uncordons.Inc()
	return nil
}

// Drain evacuates a workstation: cordon first (no new placement), then
// migrate the resident guest away via glunix. Blocks p until the guest
// has landed elsewhere (or immediately if the node is idle). Draining
// an already-drained or already-draining node is a no-op — the second
// operator's command must not re-pause a migrated job.
func (cp *ControlPlane) Drain(p *sim.Proc, ws int) error {
	cp.commands.Inc()
	m := cp.cfg.Cluster.Master
	if _, ok := m.WSInfo(ws); !ok {
		return fmt.Errorf("controlplane: workstation %d out of range", ws)
	}
	if m.Drained(ws) || cp.draining[ws] {
		return nil
	}
	sp := cp.cfg.Registry.StartSpan("cp.drain", ws)
	cp.draining[ws] = true
	m.Cordon(ws) // a no-op if already cordoned
	m.Drain(p, ws)
	delete(cp.draining, ws)
	cp.drains.Inc()
	cp.cfg.Registry.EndSpan(sp)
	return nil
}

// DrainAsync starts a drain on its own proc and returns immediately —
// the form the HTTP surface uses (poll Node(ws).Drained for landing).
func (cp *ControlPlane) DrainAsync(ws int) error {
	m := cp.cfg.Cluster.Master
	if _, ok := m.WSInfo(ws); !ok {
		cp.commands.Inc()
		return fmt.Errorf("controlplane: workstation %d out of range", ws)
	}
	cp.cfg.Engine.Spawn(fmt.Sprintf("cp/drain-ws%d", ws), func(p *sim.Proc) {
		cp.Drain(p, ws) //nolint:errcheck // range checked above
	})
	return nil
}

// DrainStorage removes an xFS node gracefully: manager roles hand off
// to their standbys (metadata travels, nothing crashes), the node
// detaches, and — if it was an active stripe member — its data is
// reconstructed onto the next hot spare before returning. Blocks p for
// the rebuild.
func (cp *ControlPlane) DrainStorage(p *sim.Proc, node int) error {
	cp.commands.Inc()
	sys := cp.cfg.XFS
	if sys == nil {
		return errors.New("controlplane: no xFS installation")
	}
	if node < 0 || node >= sys.Nodes() {
		return fmt.Errorf("controlplane: xfs node %d out of range", node)
	}
	if sys.NodeDown(node) {
		return fmt.Errorf("controlplane: xfs node %d already removed", node)
	}
	sp := cp.cfg.Registry.StartSpan("cp.drain.storage", node)
	defer cp.cfg.Registry.EndSpan(sp)
	inStripe := false
	for _, m := range sys.StripeMembers() {
		if m == node {
			inStripe = true
			break
		}
	}
	if moved := sys.HandoffManagers(node); moved > 0 {
		cp.cfg.Registry.Annotate(sp, fmt.Sprintf("%d manager(s) handed off", moved))
	}
	sys.CrashStorage(node)
	if inStripe {
		if _, err := cp.cfg.XFSTarget.RebuildDisk(p, node, -1); err != nil {
			return fmt.Errorf("controlplane: drain of xfs node %d: %w", node, err)
		}
		cp.cfg.Registry.Annotate(sp, "stripe data rebuilt onto spare")
	}
	cp.sdrains.Inc()
	return nil
}

// DrainStorageAsync starts a storage drain on its own proc and returns
// immediately — the HTTP form (poll Storage() for the node going down
// and the stripe healing).
func (cp *ControlPlane) DrainStorageAsync(node int) error {
	sys := cp.cfg.XFS
	if sys == nil {
		cp.commands.Inc()
		return errors.New("controlplane: no xFS installation")
	}
	if node < 0 || node >= sys.Nodes() {
		cp.commands.Inc()
		return fmt.Errorf("controlplane: xfs node %d out of range", node)
	}
	cp.cfg.Engine.Spawn(fmt.Sprintf("cp/drain-xfs%d", node), func(p *sim.Proc) {
		cp.DrainStorage(p, node) //nolint:errcheck // range checked above
	})
	return nil
}

// InjectLine schedules one fault from a faults-plan line, live. The
// line uses the exact plan grammar (`<at> <kind> args... [for <dur>]`)
// with At interpreted relative to *now*; the leading time may be
// omitted for "immediately" (`crash 5 for 30s`).
func (cp *ControlPlane) InjectLine(line string) error {
	cp.commands.Inc()
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return errors.New("controlplane: empty fault line")
	}
	f, err := faults.ParseFaultLine(fields)
	if err != nil {
		// The leading <at> is optional live: retry as "0s <line>".
		f2, err2 := faults.ParseFaultLine(append([]string{"0s"}, fields...))
		if err2 != nil {
			return fmt.Errorf("controlplane: %w", err)
		}
		f = f2
	}
	f.At += cp.cfg.Engine.Now()
	cp.cfg.Injector.Inject(f)
	cp.live.Inc()
	return nil
}

// Snapshot returns the current metrics (nil registry → nil).
func (cp *ControlPlane) Snapshot() []obs.Metric {
	cp.snapshots.Inc()
	return cp.cfg.Registry.Snapshot()
}

// SpansSince returns spans started after id `after` (0 = all); the
// incremental form a streaming consumer polls with the last id seen.
func (cp *ControlPlane) SpansSince(after obs.SpanID) []obs.Span {
	return cp.cfg.Registry.SpansSince(after)
}
