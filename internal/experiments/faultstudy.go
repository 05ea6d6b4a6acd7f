package experiments

import (
	"fmt"

	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
)

// FaultStudyRow is one AV1 scenario measurement.
type FaultStudyRow struct {
	Scenario      string
	JobsCompleted int
	JobsTotal     int
	MeanResponse  sim.Duration
	UserDelayP95  float64 // seconds
	HealthyMBps   float64 // xFS read bandwidth, all stores up
	DegradedMBps  float64 // between disk failure and rebuild
	RebuiltMBps   float64 // after rebuild onto the spare
	FaultsApplied int
	Rejoins       int64
	Failovers     int64
	DegradedReads int64
}

// faultStudyPlan is the scripted AV1 fault schedule, exercising every
// class the injector knows: a partition window, a workstation crash
// with recovery and census rejoin, a storage-node failure with a later
// rebuild onto a hot spare, and an xFS manager kill forcing failover.
// Workstation ids address the GLUnix fabric; storage and manager ids
// address the xFS installation (see docs/FAULTS.md on routing).
func faultStudyPlan() faults.Plan {
	return faults.Scripted("av1",
		faults.Fault{At: 600 * sim.Second, Kind: faults.Partition, Set: []int{3, 4}, For: 120 * sim.Second},
		faults.Fault{At: 1200 * sim.Second, Kind: faults.Crash, Node: 5, For: 300 * sim.Second},
		faults.Fault{At: 1500 * sim.Second, Kind: faults.DiskFail, Node: 2},
		faults.Fault{At: 2100 * sim.Second, Kind: faults.Rebuild, Node: 2, Peer: -1},
		faults.Fault{At: 2700 * sim.Second, Kind: faults.MgrKill, Node: 0},
	)
}

// FaultStudy runs the availability study: the same mixed workload
// (interactive users + parallel jobs under GLUnix, an xFS read stream
// on the side) with and without the fault plan, and reports what the
// faults cost — jobs still complete (restarting from checkpoints),
// reads continue degraded through parity, and the interactive users'
// delays stay modest. This is the paper's availability argument run
// end-to-end: "if one workstation in the NOW crashes, any other can
// take its place".
func FaultStudy(cfg AvailabilityConfig) (Report, []FaultStudyRow, error) {
	runs, reg, err := availabilityRuns(cfg, "fault study", []availabilityArm{
		{name: "baseline"},
		{name: "faulted", plan: faultStudyPlan()},
	})
	if err != nil {
		return Report{}, nil, err
	}
	rows := make([]FaultStudyRow, 0, len(runs))
	for _, run := range runs {
		rows = append(rows, faultStudyRow(run))
	}

	tbl := stats.NewTable("AV1 — availability under an injected fault plan",
		"Scenario", "Jobs done", "Mean response", "User p95 (s)",
		"xFS healthy (MB/s)", "degraded (MB/s)", "rebuilt (MB/s)", "Faults")
	for _, r := range rows {
		tbl.AddRow(r.Scenario,
			fmt.Sprintf("%d/%d", r.JobsCompleted, r.JobsTotal),
			r.MeanResponse.String(),
			fmt.Sprintf("%.2f", r.UserDelayP95),
			stats.FormatFloat(r.HealthyMBps),
			stats.FormatFloat(r.DegradedMBps),
			stats.FormatFloat(r.RebuiltMBps),
			fmt.Sprintf("%d", r.FaultsApplied))
	}
	return Report{
		ID:    "AV1",
		Title: "Jobs, storage and users ride through injected faults",
		Table: tbl,
		Notes: "scripted plan: partition 120s, ws crash+rejoin, disk fail → spare rebuild, xFS manager kill",
		Obs:   reg,
	}, rows, nil
}

// faultStudyRow reads one AV1 arm's measurements.
func faultStudyRow(run availabilityResult) FaultStudyRow {
	res := run.mixed
	row := FaultStudyRow{
		Scenario:      run.name,
		JobsCompleted: res.JobsCompleted,
		JobsTotal:     res.JobsTotal,
		MeanResponse:  res.MeanResponse,
		Rejoins:       res.Master.Rejoins,
		Failovers:     run.st.XFS.Stats().Failovers,
		FaultsApplied: run.faultsApplied(),
	}
	if res.Master.UserDelays.N() > 0 {
		row.UserDelayP95 = res.Master.UserDelays.Percentile(95)
	}
	_, _, row.DegradedReads = run.st.XFS.Client(firstReader).Array().Stats()

	// Phase bandwidths from the minute buckets, avoiding the buckets
	// that contain a transition. Phases follow faultStudyPlan times;
	// the baseline reports the same windows for comparability.
	buckets := run.buckets
	window := func(from, to sim.Time) float64 {
		lo, hi := int(from/availabilityBucket)+1, int(to/availabilityBucket)
		if hi > len(buckets) {
			hi = len(buckets)
		}
		var sum int64
		n := 0
		for i := lo; i < hi; i++ {
			sum += buckets[i]
			n++
		}
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(sim.Duration(n)*availabilityBucket/sim.Second) / 1e6
	}
	row.HealthyMBps = window(0, 1500*sim.Second)
	row.DegradedMBps = window(1500*sim.Second, 2100*sim.Second)
	// The rebuilt window ends before the manager kill at 2700s, so it
	// shows the pure post-rebuild recovery.
	row.RebuiltMBps = window(2400*sim.Second, 2700*sim.Second)
	return row
}
