// Operating the cluster: the GLUnix global layer, fault injection,
// declarative scenarios, observability, the control plane, and the
// paper's workload studies (traces, multigrid, GATOR).
package now

import (
	"fmt"

	"github.com/nowproject/now/internal/controlplane"
	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/gator"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/netram"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/scenario"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stack"
	"github.com/nowproject/now/internal/trace"
	"github.com/nowproject/now/internal/xfs"
)

// ---- the global layer ----

// GLUnix aliases.
type (
	GLUnixConfig  = glunix.Config
	GLUnix        = glunix.Cluster
	Job           = glunix.Job
	RecruitPolicy = glunix.RecruitPolicy
	Coscheduler   = glunix.Coscheduler
)

// Recruit policies.
const (
	MigrateOnReturn = glunix.MigrateOnReturn
	RestartOnReturn = glunix.RestartOnReturn
	IgnoreUser      = glunix.IgnoreUser
)

// DefaultGLUnixConfig sizes a building-scale installation.
var DefaultGLUnixConfig = glunix.DefaultConfig

// NewGLUnix builds the global layer over a fresh cluster of
// workstations.
func NewGLUnix(e *Engine, cfg GLUnixConfig) (*GLUnix, error) { return glunix.New(e, cfg) }

// NewJob describes a gang-scheduled parallel program.
var NewJob = glunix.NewJob

// ---- fault injection ----

// Fault aliases: a FaultPlan schedules Faults, a FaultInjector applies
// them to a FaultTarget (adapters onto live subsystems).
type (
	Fault              = faults.Fault
	FaultKind          = faults.Kind
	FaultPlan          = faults.Plan
	FaultInjector      = faults.Injector
	FaultTarget        = faults.Target
	BaseFaultTarget    = faults.BaseTarget
	ClusterFaultTarget = faults.ClusterTarget
	XFSFaultTarget     = faults.XFSTarget
)

// Fault kinds.
const (
	FaultCrash     = faults.Crash
	FaultRecover   = faults.Recover
	FaultPartition = faults.Partition
	FaultHeal      = faults.Heal
	FaultLink      = faults.Link
	FaultLinkClear = faults.LinkClear
	FaultDiskFail  = faults.DiskFail
	FaultRebuild   = faults.Rebuild
	FaultMgrKill   = faults.MgrKill
)

// Fault-injection constructors. ScriptedFaultPlan builds a plan in
// code; ParseFaultPlan reads the plan syntax of docs/FAULTS.md from a
// reader; ParseFaultSpec resolves a CLI spec ("seed:<n>[,k=v...]" or a
// plan-file path).
var (
	NewInjector         = faults.NewInjector
	ScriptedFaultPlan   = faults.Scripted
	ParseFaultPlan      = faults.Parse
	ParseFaultSpec      = faults.ParseSpec
	GenerateFaultPlan   = faults.Generate
	NewXFSFaultTarget   = faults.NewXFSTarget
	CombineFaultTargets = faults.Combine
)

// ---- declarative scenarios ----

// Scenario aliases: a Scenario is one parsed .scn file (fleet + event
// script + assertions — docs/SCENARIOS.md); ScenarioResult is one run's
// checks, summaries and metrics registry; ScenarioOptions holds
// execution-only knobs (never part of a deterministic output).
type (
	Scenario        = scenario.Scenario
	ScenarioResult  = scenario.Result
	ScenarioCheck   = scenario.Check
	ScenarioOptions = scenario.Options
	ScenarioProblem = scenario.Problem
)

// Scenario constructors. ParseScenario reads the DSL from a reader;
// ParseScenarioFile also anchors fault-plan references to the file's
// directory; ParseScenarioFileAll collects EVERY parse/validation
// problem instead of stopping at the first (the `nowsim check` form);
// RunScenario executes one and evaluates its assertions (assertion
// failures are data — ScenarioResult.Ok — not errors).
var (
	ParseScenario        = scenario.Parse
	ParseScenarioFile    = scenario.ParseFile
	ParseScenarioFileAll = scenario.ParseFileAll
	RunScenario          = scenario.Run
)

// ---- observability ----

// MetricsRegistry collects counters, gauges, and spans from
// instrumented subsystems; Metric is one exported sample.
type (
	MetricsRegistry = obs.Registry
	Metric          = obs.Metric
)

// NewRegistry creates an empty metrics registry; attach it to an
// engine with Engine.Observe and to subsystems with InstrumentAll.
var NewRegistry = obs.NewRegistry

// Instrumentable is anything that can export its internals into a
// metrics registry. Every NOW subsystem satisfies it: the Engine,
// Fabric, GLUnix, Coscheduler, NetRAMPager, CoopCache, RAIDArray, XFS,
// and Comm all carry an Instrument method.
type Instrumentable interface {
	Instrument(r *MetricsRegistry)
}

// InstrumentAll attaches every subsystem to one registry — the
// one-call way to wire a whole assembled system for metrics export.
// Nil subsystems are skipped, so optional pieces compose freely.
func InstrumentAll(r *MetricsRegistry, subsystems ...Instrumentable) {
	for _, s := range subsystems {
		if s != nil {
			s.Instrument(r)
		}
	}
}

// ---- traces and mixed workloads ----

// Trace aliases: recorded user activity and parallel-job logs drive
// the mixed-workload studies.
type (
	ActivityTrace = trace.ActivityTrace
	ParallelJob   = trace.ParallelJob
)

// GLUnixMixedResult reports a mixed interactive-plus-parallel run
// ((*GLUnix).RunMixed).
type GLUnixMixedResult = glunix.MixedResult

// ---- control plane (operate the cluster) ----

// Control-plane aliases: a ControlPlane is the in-process operator API
// over a live cluster (census, cordon/uncordon, drain, live fault
// injection, metric/span streaming); a Remediator closes the
// self-healing loop; a ControlPlaneServer maps virtual time onto the
// wall clock and serves the HTTP/JSON operator API; a
// ControlPlaneClient is its typed client (what nowctl speaks). See
// docs/CONTROLPLANE.md.
type (
	ControlPlane             = controlplane.ControlPlane
	ControlPlaneConfig       = controlplane.Config
	ControlPlaneServer       = controlplane.Server
	ControlPlaneServerConfig = controlplane.ServerConfig
	ControlPlaneClient       = controlplane.Client
	ControlPlaneStack        = stack.Stack
	Remediator               = controlplane.Remediator
	RemediationPolicy        = controlplane.RemediationPolicy
	WorkstationStatus        = controlplane.NodeStatus
	StoreStatus              = controlplane.StoreStatus
	NOWClusterStatus         = controlplane.ClusterStatus
)

// Control-plane constructors.
var (
	NewControlPlane          = controlplane.New
	NewControlPlaneServer    = controlplane.NewServer
	NewRemediator            = controlplane.NewRemediator
	DefaultRemediationPolicy = controlplane.DefaultRemediationPolicy
)

// ControlPlaneStackConfig shapes the servable NOW that `nowsim serve`
// runs: a GLUnix cluster, an optional xFS installation, the control
// plane over both and a remediator.
type ControlPlaneStackConfig struct {
	Seed         int64
	Workstations int
	// XFSNodes > 0 adds a storage fleet with Spares hot spares and
	// Managers metadata managers.
	XFSNodes int
	Spares   int
	Managers int
	// JobEvery > 0 trickles background parallel jobs (2 wide, 20s of
	// work each) into the cluster so a served simulation has pulse.
	JobEvery Duration
	// RemediateOn arms self-healing from t=0.
	RemediateOn bool
}

// NewControlPlaneStack builds the servable stack on a fresh engine.
// Nothing has run yet: drive it with Engine.RunUntil or wrap it in a
// ControlPlaneServer. Close the Engine when done.
func NewControlPlaneStack(cfg ControlPlaneStackConfig) (*ControlPlaneStack, error) {
	if cfg.Workstations < 2 {
		return nil, fmt.Errorf("now: a served stack needs ≥2 workstations, have %d", cfg.Workstations)
	}
	e := sim.NewEngine(cfg.Seed)
	reg := obs.NewRegistry()
	e.Observe(reg)
	gcfg := glunix.DefaultConfig(cfg.Workstations)
	gcfg.Seed = cfg.Seed
	spec := stack.Spec{GLUnix: &gcfg, Control: true, Remediate: true}
	if cfg.XFSNodes > 0 {
		xcfg := xfs.DefaultConfig(cfg.XFSNodes)
		xcfg.SpareNodes = cfg.Spares
		if cfg.Managers > 0 {
			xcfg.Managers = cfg.Managers
		}
		spec.XFS = &xcfg
	}
	st, err := stack.Build(e, reg, spec)
	if err != nil {
		e.Close()
		return nil, err
	}
	st.Remediator.SetEnabled(cfg.RemediateOn)
	if cfg.JobEvery > 0 {
		e.Spawn("controlplane/job-trickle", func(p *Proc) {
			for id := 0; ; id++ {
				st.Cluster.Master.Submit(glunix.NewJob(id, 2, 20*Second, 0))
				p.Sleep(cfg.JobEvery)
			}
		})
	}
	return st, nil
}

// ---- network RAM multigrid workload ----

// Multigrid aliases: the paper's out-of-core scientific workload
// paging to remote memory.
type (
	MultigridConfig = netram.MultigridConfig
	MultigridResult = netram.MultigridResult
)

// Multigrid constructors.
var (
	DefaultMultigridConfig = netram.DefaultMultigridConfig
	RunMultigrid           = netram.RunMultigrid
)

// ---- GATOR (global-atmosphere model) ----

// GATOR aliases: the paper's end-to-end application study.
type (
	GatorMiniConfig = gator.MiniConfig
	GatorMiniResult = gator.MiniResult
	GatorPhaseTimes = gator.PhaseTimes
)

// GATOR constructors and the paper's Table 4 reference times.
var (
	DefaultGatorMiniConfig = gator.DefaultMiniConfig
	RunGatorMini           = gator.RunMini
	GatorTable4            = gator.Table4
)
