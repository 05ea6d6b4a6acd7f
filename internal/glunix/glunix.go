// Package glunix implements GLUnix, the paper's "global layer Unix": a
// user-level layer glued over the unmodified operating systems of a
// building's workstations that provides global process control, idle
// resource detection, transparent process migration, and failure
// isolation.
//
// The central promises of the paper that this package keeps:
//
//   - every interactive user is guaranteed at least the performance of a
//     dedicated workstation: an idle machine's memory image is saved
//     before the machine is recruited, guest processes are migrated away
//     the moment the user returns, and the image is restored;
//   - demanding parallel jobs receive gangs of idle machines, with the
//     gang's processes placed together (Figure 4's coscheduling
//     model lives in internal/apps);
//   - an individual node crash affects only the jobs with a process on
//     that node, and those restart from their last checkpoint elsewhere.
//
// The layer is built from a Master (the global resource manager) and one
// Daemon per workstation, communicating over Active Messages.
//
// Setting Config.Obs (or calling Cluster.Instrument) attaches an
// internal/obs registry: workstation-state and job-progress gauges,
// migration and user-delay latency histograms, and virtual-time spans
// for placements, migrations and checkpoints (docs/OBSERVABILITY.md).
package glunix

import (
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// AM handlers (glunix owns 0x60–0x6F).
const (
	hHeartbeat am.HandlerID = 0x60 + iota
	hExec
	hUserState
	hProcDone
	hBulk
)

// RecruitPolicy is what happens to a guest process when the
// workstation's user returns.
type RecruitPolicy int

const (
	// MigrateOnReturn moves the guest (with its memory state) to another
	// idle machine — the paper's design.
	MigrateOnReturn RecruitPolicy = iota + 1
	// RestartOnReturn kills the guest; the job restarts that process
	// from its last checkpoint elsewhere (ablation).
	RestartOnReturn
	// IgnoreUser leaves the guest running, stealing the user's machine
	// (ablation: what the paper says makes users hate you).
	IgnoreUser
)

// RecoverPolicy is whether a workstation that crashed and came back can
// rejoin the census and become recruitable again.
type RecoverPolicy int

const (
	// RejoinOnHeartbeat re-admits a recovered workstation as soon as its
	// daemon's first heartbeat reaches the master — the paper's design:
	// "if one workstation in the NOW crashes, any other can take its
	// place", and the crashed one returns after reboot.
	RejoinOnHeartbeat RecoverPolicy = iota + 1
	// NeverRejoin keeps a crashed workstation out of the census forever
	// (the pre-recovery behaviour, kept testable as an ablation).
	NeverRejoin
)

// String names the policy.
func (p RecoverPolicy) String() string {
	switch p {
	case RejoinOnHeartbeat:
		return "rejoin-on-heartbeat"
	case NeverRejoin:
		return "never-rejoin"
	default:
		return fmt.Sprintf("recover-policy(%d)", int(p))
	}
}

// String names the policy.
func (p RecruitPolicy) String() string {
	switch p {
	case MigrateOnReturn:
		return "migrate-on-return"
	case RestartOnReturn:
		return "restart-on-return"
	case IgnoreUser:
		return "ignore-user"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config shapes a GLUnix cluster.
type Config struct {
	// Workstations on the network (node 0 is the master and is not
	// recruited for jobs; workstations are nodes 1..Workstations).
	Workstations int
	// Fabric builds the network configuration for n nodes.
	Fabric func(nodes int) netsim.Config
	// Proto is the system communication configuration.
	Proto am.Config
	// NodeTemplate builds each workstation's hardware config.
	NodeTemplate func(id netsim.NodeID) node.Config
	// HeartbeatInterval between daemon heartbeats; a node is declared
	// down after HeartbeatMiss missed intervals.
	HeartbeatInterval sim.Duration
	HeartbeatMiss     int
	// IdleThreshold is the paper's availability rule: a machine is
	// available when there has been no user activity for one minute.
	IdleThreshold sim.Duration
	// ImageBytes is a guest process's memory image, transferred whole on
	// migration and checkpoint.
	ImageBytes int64
	// UserImageBytes is the interactive user's memory state, saved to a
	// buddy node before recruitment and restored on return.
	UserImageBytes int64
	// SaveRestore enables the memory save/restore guarantee.
	SaveRestore bool
	// Policy is the user-return policy.
	Policy RecruitPolicy
	// Recover is the census re-admission policy for workstations that
	// crash and later recover (see Cluster.Recover). Zero means
	// RejoinOnHeartbeat.
	Recover RecoverPolicy
	// CheckpointInterval is how often each guest process checkpoints its
	// image (enabling restart after a crash).
	CheckpointInterval sim.Duration
	// MaxEvictionsPerUserDay caps how many times per day any single
	// user may be delayed by a returning guest — the paper: "we
	// explicitly limit the number of times per day external processes
	// can delay any interactive user." A machine over its limit is not
	// recruited again until the day rolls over. Zero means unlimited.
	MaxEvictionsPerUserDay int
	// BarrierOverhead is CPU charged per gang-barrier crossing.
	BarrierOverhead sim.Duration
	// ChunkBytes is the unit of bulk image transfers.
	ChunkBytes int
	// Seed drives placement tie-breaking randomness.
	Seed int64
	// Obs, when non-nil, attaches observability collectors to the
	// cluster and its fabric at construction (see Cluster.Instrument and
	// netsim.Fabric.Instrument). The caller typically also passes the
	// same registry to Engine.Observe.
	Obs *obs.Registry
}

// DefaultConfig returns a building-scale GLUnix configuration on a
// switched fabric with lean communication.
func DefaultConfig(workstations int) Config {
	return Config{
		Workstations:           workstations,
		Fabric:                 netsim.ATM155,
		Proto:                  am.DefaultConfig(),
		NodeTemplate:           node.DefaultConfig,
		HeartbeatInterval:      5 * sim.Second,
		HeartbeatMiss:          3,
		IdleThreshold:          1 * sim.Minute,
		ImageBytes:             32 << 20,
		UserImageBytes:         64 << 20,
		SaveRestore:            true,
		Policy:                 MigrateOnReturn,
		Recover:                RejoinOnHeartbeat,
		MaxEvictionsPerUserDay: 4,
		CheckpointInterval:     10 * sim.Minute,
		BarrierOverhead:        50 * sim.Microsecond,
		ChunkBytes:             64 << 10,
		Seed:                   1,
	}
}

// Cluster is a GLUnix installation: master plus daemons on a fabric.
type Cluster struct {
	Cfg     Config
	Eng     *sim.Engine
	Fab     *netsim.Fabric
	Nodes   []*node.Node   // index = node id; 0 is the master host
	EPs     []*am.Endpoint // system endpoints (port 0, system class)
	Master  *Master
	Daemons []*Daemon // index 1..Workstations (index 0 nil)

	obs *obs.Registry   // nil unless Instrument attached a registry
	cm  *clusterMetrics // histogram handles, nil with obs
}

// New builds the cluster on e.
func New(e *sim.Engine, cfg Config) (*Cluster, error) {
	if cfg.Workstations <= 0 {
		return nil, fmt.Errorf("glunix: %d workstations", cfg.Workstations)
	}
	if cfg.Fabric == nil {
		cfg.Fabric = netsim.ATM155
	}
	if cfg.NodeTemplate == nil {
		cfg.NodeTemplate = node.DefaultConfig
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 5 * sim.Second
	}
	if cfg.HeartbeatMiss <= 0 {
		cfg.HeartbeatMiss = 3
	}
	if cfg.IdleThreshold <= 0 {
		cfg.IdleThreshold = sim.Minute
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 64 << 10
	}
	if cfg.Policy == 0 {
		cfg.Policy = MigrateOnReturn
	}
	if cfg.Recover == 0 {
		cfg.Recover = RejoinOnHeartbeat
	}
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 10 * sim.Minute
	}
	total := cfg.Workstations + 1
	fab, err := netsim.New(e, cfg.Fabric(total))
	if err != nil {
		return nil, fmt.Errorf("glunix: %w", err)
	}
	c := &Cluster{Cfg: cfg, Eng: e, Fab: fab}
	c.Nodes = make([]*node.Node, total)
	c.EPs = make([]*am.Endpoint, total)
	for i := 0; i < total; i++ {
		c.Nodes[i] = node.New(e, cfg.NodeTemplate(netsim.NodeID(i)))
		c.EPs[i] = am.NewEndpoint(e, c.Nodes[i], fab, cfg.Proto)
		// Bulk transfer sink on every node.
		c.EPs[i].Register(hBulk, func(p *sim.Proc, m am.Msg) (any, int) { return nil, 0 })
	}
	c.Master = newMaster(c)
	c.Daemons = make([]*Daemon, total)
	for i := 1; i < total; i++ {
		c.Daemons[i] = newDaemon(c, i)
	}
	if cfg.Obs != nil {
		fab.Instrument(cfg.Obs)
		c.Instrument(cfg.Obs)
	}
	return c, nil
}

// Crash simulates a fail-stop crash of workstation ws: its endpoint
// detaches, its daemon stops heartbeating, and every guest process on it
// dies. The master notices through missed heartbeats.
func (c *Cluster) Crash(ws int) {
	if ws <= 0 || ws >= len(c.EPs) {
		return
	}
	c.Daemons[ws].crashed = true
	c.EPs[ws].Detach()
	c.Master.killProcsOn(ws)
}

// Recover reboots a crashed workstation ws: its endpoint reattaches to
// the fabric and its daemon restarts with fresh console state (no user
// activity, no saved image — a reboot loses local state; anything the
// node held for others lives on, because it was parked elsewhere). The
// master re-admits the machine to the census when the restarted
// daemon's first heartbeat arrives, unless Cfg.Recover is NeverRejoin.
// Recovering a workstation that never crashed is a no-op.
func (c *Cluster) Recover(ws int) {
	if ws <= 0 || ws >= len(c.EPs) {
		return
	}
	d := c.Daemons[ws]
	if d == nil || !d.crashed {
		return
	}
	// If the master had not yet noticed the crash (recovery inside the
	// heartbeat deadline), its census still shows the dead guest; the
	// guest's processes died with the node, so the job must restart from
	// checkpoint now — heartbeats resuming would otherwise mask the
	// crash and strand the job forever.
	if g := c.Master.ws[ws].guest; g != nil && g.killed {
		c.Master.ws[ws].guest = nil
		c.Master.restartJob(g.job)
	}
	d.crashed = false
	d.userActive = false
	d.imageSaved = false
	d.seq++
	d.idleTimer.Stop()
	c.EPs[ws].Reattach()
	c.Eng.Spawn(fmt.Sprintf("glunix/daemon%d", ws), d.heartbeatLoop)
}

// transferBulk streams n bytes from the system endpoint of src to dst in
// ChunkBytes units, blocking p until the destination has acknowledged
// everything — the primitive under image save, restore, migration and
// checkpoint.
func (c *Cluster) transferBulk(p *sim.Proc, src, dst int, n int64) error {
	ep := c.EPs[src]
	preFailures := ep.Stats().Failures
	chunk := int64(c.Cfg.ChunkBytes)
	for sent := int64(0); sent < n; sent += chunk {
		sz := chunk
		if n-sent < sz {
			sz = n - sent
		}
		ep.SendAsync(p, netsim.NodeID(dst), hBulk, nil, int(sz))
	}
	ep.Flush(p)
	if ep.Stats().Failures > preFailures {
		return fmt.Errorf("glunix: bulk transfer %d→%d lost data", src, dst)
	}
	return nil
}
