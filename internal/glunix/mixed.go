package glunix

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
	"github.com/nowproject/now/internal/trace"
)

// MixedResult reports a mixed-workload run (Figure 3): a parallel job
// log overlaid on workstations serving interactive users.
type MixedResult struct {
	Workstations  int
	JobsCompleted int
	JobsTotal     int
	// MeanResponse across completed jobs.
	MeanResponse sim.Duration
	// Responses per completed job id.
	Responses map[int]sim.Duration
	Master    MasterStats
}

// RunMixed overlays the parallel job log on the cluster, whose
// workstations receive the interactive activity trace, simulating until
// horizon (which must cover the trace). Jobs larger than the cluster are
// skipped (counted in JobsTotal but never completed). Anything else
// sharing the engine — a fault injector, extra workloads — is attached
// before the call.
func (c *Cluster) RunMixed(activity *trace.ActivityTrace, jobs []trace.ParallelJob,
	horizon sim.Time) (MixedResult, error) {

	e, cfg := c.Eng, c.Cfg
	// Feed user activity into the daemons.
	if activity != nil {
		for _, ev := range activity.Events {
			ev := ev
			if ev.WS+1 >= len(c.Daemons) {
				continue // trace wider than cluster
			}
			e.At(ev.T, func() { c.Daemons[ev.WS+1].SetUserActive(ev.Active) })
		}
	}
	// Submit the job log.
	submitted := make([]*Job, 0, len(jobs))
	for _, tj := range jobs {
		if tj.Nodes > cfg.Workstations {
			continue
		}
		j := NewJob(tj.ID, tj.Nodes, tj.Work, tj.CommGrain)
		submitted = append(submitted, j)
		e.At(tj.Arrive, func() { c.Master.Submit(j) })
	}
	if err := e.RunUntil(horizon); err != nil && !errors.Is(err, sim.ErrStopped) {
		return MixedResult{}, fmt.Errorf("glunix: mixed run: %w", err)
	}
	res := MixedResult{
		Workstations: cfg.Workstations,
		JobsTotal:    len(submitted),
		Responses:    make(map[int]sim.Duration),
		Master:       c.Master.Stats(),
	}
	var sum stats.Summary
	for _, j := range submitted {
		if j.Done() {
			res.JobsCompleted++
			res.Responses[j.ID] = j.Response()
			sum.Add(j.Response().Seconds())
		}
	}
	if res.JobsCompleted > 0 {
		res.MeanResponse = sim.Duration(sum.Mean() * float64(sim.Second))
	}
	return res, nil
}

// Slowdown compares a NOW run against a dedicated-machine baseline: the
// mean, over jobs completed in both runs, of response(now)/response
// (dedicated) — Figure 3's y-axis.
func Slowdown(now, dedicated MixedResult) float64 {
	var s stats.Summary
	for id, rNow := range now.Responses {
		if rDed, ok := dedicated.Responses[id]; ok && rDed > 0 {
			s.Add(float64(rNow) / float64(rDed))
		}
	}
	return s.Mean()
}
