package experiments

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stack"
	"github.com/nowproject/now/internal/trace"
	"github.com/nowproject/now/internal/xfs"
)

// AvailabilityConfig shapes the availability studies AV1 and AV2.
type AvailabilityConfig struct {
	// Workstations in the GLUnix cluster (the mixed workload side).
	Workstations int
	// ReadStreams is how many parallel clients keep the stores busy.
	// It must be enough to make the array throughput-bound, or the
	// degraded window shows no penalty (see availabilityRun).
	ReadStreams int
}

const (
	// availabilityXFSNodes and availabilitySpares shape the storage
	// side: availabilityXFSNodes in total, of which the last
	// availabilitySpares are hot spares outside the stripe.
	availabilityXFSNodes = 10
	availabilitySpares   = 2
	// availabilityHorizon is the faulted portion of the run; the
	// simulation gets extra slack after it so restarted jobs can finish.
	availabilityHorizon = sim.Hour
	// availabilitySeed drives the engine, the traces and the fault plan.
	availabilitySeed = 1
	// availabilityBucket is the width of the read-bandwidth buckets.
	availabilityBucket = 60 * sim.Second
	// firstReader is the xFS client running read stream 0; stream r
	// runs on client firstReader+r.
	firstReader = 3
)

// availabilityArm is one run of an availability study.
type availabilityArm struct {
	name string
	plan faults.Plan
	// heal builds the control plane and its remediator; remediate
	// arms the remediator from t=0.
	heal, remediate bool
}

// availabilityResult is what one arm measured.
type availabilityResult struct {
	name  string
	mixed glunix.MixedResult
	// buckets holds the xFS bytes read in each availabilityBucket.
	buckets []int64
	// st.Registry holds the cluster metrics, regXFS the storage ones.
	st     *stack.Stack
	regXFS *obs.Registry
}

// faultsApplied counts the plan faults the stack's injector handled.
func (r availabilityResult) faultsApplied() int {
	if r.st.Injector == nil {
		return 0
	}
	return r.st.Injector.Applied()
}

// availabilityRuns runs every arm on its own engine and collects each
// arm's registries under "<arm>/cluster" and "<arm>/xfs".
func availabilityRuns(cfg AvailabilityConfig, study string, arms []availabilityArm) ([]availabilityResult, map[string]*obs.Registry, error) {
	out := make([]availabilityResult, 0, len(arms))
	regs := map[string]*obs.Registry{}
	for _, arm := range arms {
		res, err := availabilityRun(cfg, arm)
		if err != nil {
			return nil, nil, fmt.Errorf("%s %s: %w", study, arm.name, err)
		}
		out = append(out, res)
		regs[arm.name+"/cluster"] = res.st.Registry
		regs[arm.name+"/xfs"] = res.regXFS
	}
	return out, regs, nil
}

// availabilityRun executes one arm on a single engine: the GLUnix
// mixed workload (interactive users plus the parallel job log) and an
// xFS read load share virtual time, and the stack's one injector
// drives the plan through both.
func availabilityRun(cfg AvailabilityConfig, arm availabilityArm) (availabilityResult, error) {
	res := availabilityResult{name: arm.name, regXFS: obs.NewRegistry()}
	e := sim.NewEngine(availabilitySeed)
	defer e.Close()
	regCluster := obs.NewRegistry()
	e.Observe(regCluster)
	res.regXFS.SetClock(func() obs.Time { return int64(e.Now()) })

	gcfg := glunix.DefaultConfig(cfg.Workstations)
	gcfg.Seed = availabilitySeed
	// Storage side: an xFS installation with hot spares on its own
	// fabric (storage ids in the plan address this system).
	xcfg := xfs.DefaultConfig(availabilityXFSNodes)
	xcfg.SpareNodes = availabilitySpares
	xcfg.Managers = 2
	xcfg.ClientCacheBlocks = 16 // small cache: reads exercise the RAID
	st, err := stack.Build(e, regCluster, stack.Spec{
		GLUnix:      &gcfg,
		XFS:         &xcfg,
		XFSRegistry: res.regXFS,
		Plan:        arm.plan,
		Control:     arm.heal,
		Remediate:   arm.heal,
	})
	if err != nil {
		return res, err
	}
	res.st = st
	if st.Remediator != nil {
		st.Remediator.SetEnabled(arm.remediate)
	}

	// The read load: each client cycles through its own file, larger
	// than the client cache so steady-state reads hit storage. Several
	// parallel streams keep the stores throughput-bound — a single
	// latency-bound stream would actually speed up degraded (parallel
	// reconstruct overlaps the survivors), hiding the cost the studies
	// are after. Completions are bucketed by minute for the phase
	// numbers.
	const fileBlocks = 128
	res.buckets = make([]int64, int(availabilityHorizon/availabilityBucket)+1)
	for r := 0; r < cfg.ReadStreams; r++ {
		client := st.XFS.Client(firstReader + r)
		file := xfs.FileID(1 + r)
		e.Spawn(fmt.Sprintf("availability/xfsload%d", r), func(p *sim.Proc) {
			buf := make([]byte, xcfg.BlockBytes)
			for blk := uint32(0); blk < fileBlocks; blk++ {
				if err := client.Write(p, file, blk, buf); err != nil {
					p.Fail(err)
				}
			}
			if err := client.Sync(p); err != nil {
				p.Fail(err)
			}
			for blk := uint32(0); ; blk = (blk + 1) % fileBlocks {
				if p.Now() >= sim.Time(availabilityHorizon) {
					return
				}
				data, err := client.Read(p, file, blk)
				if err != nil {
					// Reads during the degraded window may race the crash
					// itself; skip rather than abort the stream.
					continue
				}
				if b := int(p.Now() / availabilityBucket); b < len(res.buckets) {
					res.buckets[b] += int64(len(data))
				}
			}
		})
	}

	// Cluster side: interactive users plus the parallel job log.
	acfg := trace.DefaultActivityConfig(cfg.Workstations, 1)
	acfg.Seed = availabilitySeed
	activity := trace.GenerateActivity(acfg)
	jcfg := trace.DefaultJobTraceConfig(availabilityHorizon)
	jcfg.Seed = availabilitySeed
	jcfg.MachineNodes = cfg.Workstations / 2 // every job fits the NOW
	jcfg.MeanInterarrival = 10 * sim.Minute
	jcfg.MeanDevWork = 3 * sim.Minute
	jcfg.MeanProdWork = 10 * sim.Minute
	jobs := trace.GenerateJobs(jcfg)
	for i := range jobs {
		if jobs[i].CommGrain < 5*sim.Second {
			jobs[i].CommGrain = 5 * sim.Second
		}
	}
	// Slack after the horizon lets restarted jobs finish.
	res.mixed, err = st.Cluster.RunMixed(activity, jobs, availabilityHorizon+2*sim.Hour)
	if err != nil && !errors.Is(err, sim.ErrStopped) {
		return res, err
	}
	return res, nil
}
