package experiments

import (
	"fmt"

	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
)

// AV2 — availability with the loop closed. AV1 shows the stack riding
// through a scripted fault plan when an operator scripts the repair
// (the plan itself contains the rebuild line). AV2 asks the production
// question instead: the same faults with NO scripted repair, measured
// twice — once with the control plane's self-healing remediation off
// (the cluster stays degraded) and once with it on (health checks
// drive cordon → manager handoff → spare rebuild → uncordoned rejoin
// automatically). The gap between the two availability numbers is what
// the remediation loop buys. Pure virtual time, so both runs are
// byte-deterministic and golden-gated.

// RemediationRow is one AV2 measurement.
type RemediationRow struct {
	Scenario         string
	AvailabilityPct  float64 // minute buckets at ≥90% of healthy bandwidth
	DegradedMinutes  int     // minute buckets below the availability bar
	JobsCompleted    int
	JobsTotal        int
	MeanResponse     sim.Duration
	Rebuilds         int64 // remediate.rebuilds
	RemediateActions int64 // remediate.actions
	FaultsApplied    int
}

// av2Plan is the AV1 schedule with the scripted repair removed: the
// partition, the workstation crash window, the disk failure and the
// manager kill all still land, but nobody scripts the rebuild — either
// the remediator notices, or the stripe stays degraded to the end.
func av2Plan() faults.Plan {
	return faults.Scripted("av2",
		faults.Fault{At: 600 * sim.Second, Kind: faults.Partition, Set: []int{3, 4}, For: 120 * sim.Second},
		faults.Fault{At: 1200 * sim.Second, Kind: faults.Crash, Node: 5, For: 300 * sim.Second},
		faults.Fault{At: 1500 * sim.Second, Kind: faults.DiskFail, Node: 2},
		faults.Fault{At: 2700 * sim.Second, Kind: faults.MgrKill, Node: 0},
	)
}

// RemediationStudy runs AV2: the unrepaired fault plan with the
// self-healing loop off, then on, and reports the availability each
// side achieves. Availability is the fraction of whole minutes in
// which the xFS read stream delivered at least 90% of its healthy-phase
// bandwidth — a throughput-SLO framing of "the cluster is usable".
func RemediationStudy(cfg AvailabilityConfig) (Report, []RemediationRow, error) {
	runs, reg, err := availabilityRuns(cfg, "remediation study", []availabilityArm{
		{name: "remediate off", plan: av2Plan(), heal: true},
		{name: "remediate on", plan: av2Plan(), heal: true, remediate: true},
	})
	if err != nil {
		return Report{}, nil, err
	}
	rows := make([]RemediationRow, 0, len(runs))
	for _, run := range runs {
		rows = append(rows, remediationRow(run))
	}

	tbl := stats.NewTable("AV2 — availability with self-healing remediation off vs on",
		"Scenario", "Availability", "Degraded min", "Jobs done",
		"Mean response", "Rebuilds", "Actions", "Faults")
	for _, r := range rows {
		tbl.AddRow(r.Scenario,
			fmt.Sprintf("%.1f%%", r.AvailabilityPct),
			fmt.Sprintf("%d", r.DegradedMinutes),
			fmt.Sprintf("%d/%d", r.JobsCompleted, r.JobsTotal),
			r.MeanResponse.String(),
			fmt.Sprintf("%d", r.Rebuilds),
			fmt.Sprintf("%d", r.RemediateActions),
			fmt.Sprintf("%d", r.FaultsApplied))
	}
	return Report{
		ID:    "AV2",
		Title: "Self-healing remediation closes the availability gap",
		Table: tbl,
		Notes: "AV1's fault plan minus the scripted rebuild; availability = minutes at ≥90% of healthy xFS bandwidth",
		Obs:   reg,
	}, rows, nil
}

// remediationRow reads one AV2 arm's measurements.
func remediationRow(run availabilityResult) RemediationRow {
	row := RemediationRow{
		Scenario:      run.name,
		JobsCompleted: run.mixed.JobsCompleted,
		JobsTotal:     run.mixed.JobsTotal,
		MeanResponse:  run.mixed.MeanResponse,
		FaultsApplied: run.faultsApplied(),
	}
	row.Rebuilds, _ = run.st.Registry.CounterValue("remediate.rebuilds")
	row.RemediateActions, _ = run.st.Registry.CounterValue("remediate.actions")

	// Availability: whole minutes at ≥90% of the healthy-phase mean.
	// Healthy = minutes 1..24 (warm, before the 1500s disk failure);
	// the measured span is every complete minute after warmup.
	buckets := run.buckets
	healthyEnd := int(1500 * sim.Second / availabilityBucket)
	var healthySum int64
	for i := 1; i < healthyEnd; i++ {
		healthySum += buckets[i]
	}
	healthyMean := float64(healthySum) / float64(healthyEnd-1)
	bar := 0.9 * healthyMean
	okMin, total := 0, 0
	for i := 1; i < len(buckets)-1; i++ {
		total++
		if float64(buckets[i]) >= bar {
			okMin++
		} else {
			row.DegradedMinutes++
		}
	}
	if total > 0 {
		row.AvailabilityPct = 100 * float64(okMin) / float64(total)
	}
	return row
}
