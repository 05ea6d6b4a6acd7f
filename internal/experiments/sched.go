package experiments

import (
	"fmt"

	"github.com/nowproject/now/internal/apps"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
	"github.com/nowproject/now/internal/trace"
)

// Figure3Row is one cluster size's outcome.
type Figure3Row struct {
	Workstations  int
	Slowdown      float64
	JobsCompleted int
	Migrations    int64
	Evictions     int64
}

// Figure3Config controls the mixed-workload study's scale.
type Figure3Config struct {
	// Days of trace to simulate.
	Days int
	// Sizes are the NOW sizes to sweep.
	Sizes []int
}

// figure3Seed seeds F3's traces and engines.
const figure3Seed = 1

// Figure3 overlays a 32-node MPP job log on a NOW running interactive
// users, sweeping the number of workstations. Slowdown is each job's
// response time relative to running immediately on dedicated hardware
// (the MPP user's reference point: their partition, right now) — so it
// charges the NOW for every recruitment delay, migration stall and
// eviction, and cannot be rescued by the NOW's extra capacity absorbing
// queueing. The paper's claim: ≈1.1× at 64 workstations.
func Figure3(cfg Figure3Config) (Report, []Figure3Row, error) {
	length := sim.Duration(cfg.Days) * 24 * sim.Hour
	horizon := length + 12*sim.Hour // let straggler jobs finish

	jcfg := trace.DefaultJobTraceConfig(length)
	jcfg.Seed = figure3Seed
	// The LANL machine ran at modest utilisation: the dedicated
	// baseline rarely queues, so the NOW's extra machines cannot win by
	// absorbing queueing — any slowdown is pure recruitment friction,
	// which is what the paper's figure isolates.
	jcfg.MeanInterarrival = 65 * sim.Minute
	// Production runs dominated the LANL machine: full-partition jobs
	// are what make small NOWs struggle.
	jcfg.DevFraction = 0.5
	jobs := trace.GenerateJobs(jcfg)
	// Gang barriers every few seconds of compute: coupling at the
	// granularity that matters for migration stalls, at simulatable
	// event counts.
	for i := range jobs {
		if jobs[i].CommGrain < 5*sim.Second {
			jobs[i].CommGrain = 5 * sim.Second
		}
	}

	gcfg := func(ws int) glunix.Config {
		c := glunix.DefaultConfig(ws)
		c.HeartbeatInterval = 5 * sim.Minute
		c.CheckpointInterval = 30 * sim.Minute
		return c
	}

	// Ideal per-job baseline: immediate start on dedicated nodes.
	ideal := make(map[int]sim.Duration, len(jobs))
	for _, tj := range jobs {
		ideal[tj.ID] = tj.Work
	}

	rows := make([]Figure3Row, 0, len(cfg.Sizes))
	tbl := stats.NewTable("Figure 3 — 32-node MPP workload on a NOW with interactive users",
		"Workstations", "Slowdown vs dedicated", "Paper", "Jobs done", "Migrations", "Evictions")
	for _, ws := range cfg.Sizes {
		acfg := trace.DefaultActivityConfig(ws, cfg.Days)
		acfg.Seed = figure3Seed
		activity := trace.GenerateActivity(acfg)
		e := sim.NewEngine(figure3Seed)
		c, err := glunix.New(e, gcfg(ws))
		var mixed glunix.MixedResult
		if err == nil {
			mixed, err = c.RunMixed(activity, jobs, horizon)
		}
		e.Close()
		if err != nil {
			return Report{}, nil, fmt.Errorf("figure3 ws=%d: %w", ws, err)
		}
		var sl stats.Summary
		for id, resp := range mixed.Responses {
			if base := ideal[id]; base > 0 {
				sl.Add(float64(resp) / float64(base))
			}
		}
		row := Figure3Row{
			Workstations:  ws,
			Slowdown:      sl.Mean(),
			JobsCompleted: mixed.JobsCompleted,
			Migrations:    mixed.Master.Migrations,
			Evictions:     mixed.Master.Evictions,
		}
		rows = append(rows, row)
		paper := "-"
		if ws == 64 {
			paper = "≈1.1"
		}
		tbl.AddRow(fmt.Sprintf("%d", ws), fmt.Sprintf("%.2f", row.Slowdown), paper,
			fmt.Sprintf("%d/%d", row.JobsCompleted, mixed.JobsTotal),
			fmt.Sprintf("%d", row.Migrations), fmt.Sprintf("%d", row.Evictions))
	}
	return Report{
		ID:    "F3",
		Title: "A 64-workstation NOW runs the MPP workload ≈10% slower — a CM-5 for free",
		Table: tbl,
		Notes: "synthetic LANL-style job log + diurnal activity traces; migrate-on-return with memory save/restore",
	}, rows, nil
}

// Figure4Row is one (pattern, jobs) slowdown.
type Figure4Row struct {
	Pattern  apps.Pattern
	Jobs     int
	Slowdown float64
}

// Figure4 measures local-scheduling slowdown relative to coscheduling
// for the paper's application set as competing jobs increase.
func Figure4(maxJobs int, seed int64) (Report, []Figure4Row, error) {
	if maxJobs <= 0 {
		maxJobs = 3
	}
	patterns := []apps.Pattern{apps.RandA, apps.RandB, apps.Column, apps.Em3d, apps.Connect}
	var rows []Figure4Row
	tbl := stats.NewTable("Figure 4 — slowdown of local scheduling vs coscheduling",
		"Application", "1 job", "2 jobs", "3 jobs", "Paper's ordering")
	for _, pt := range patterns {
		cells := []string{pt.String()}
		for jobs := 1; jobs <= maxJobs; jobs++ {
			s, err := apps.Slowdown(pt, jobs, seed)
			if err != nil {
				return Report{}, nil, fmt.Errorf("figure4 %v/%d: %w", pt, jobs, err)
			}
			rows = append(rows, Figure4Row{Pattern: pt, Jobs: jobs, Slowdown: s})
			cells = append(cells, fmt.Sprintf("%.2fx", s))
		}
		expect := map[apps.Pattern]string{
			apps.RandA:   "not significantly slowed",
			apps.RandB:   "not significantly slowed",
			apps.Column:  "slow (buffer overflow)",
			apps.Em3d:    "suffers (synchronisation)",
			apps.Connect: "performs very poorly",
		}[pt]
		cells = append(cells, expect)
		tbl.AddRow(cells...)
	}
	return Report{
		ID:    "F4",
		Title: "Local scheduling destroys tightly coupled parallel programs",
		Table: tbl,
		Notes: "process-granularity model: spin-polling processes, 100ms quanta, bounded receive buffers",
	}, rows, nil
}

// AvailabilityResult is E9's outcome.
type AvailabilityResult struct {
	FullyIdleDaytime float64
	MeanAvailableAt2 float64 // fraction available at 2pm
}

// Availability reproduces the idle-workstation measurement: even during
// daytime hours, more than 60% of machines are available 100% of the
// time.
func Availability(workstations, days int, seed int64) (Report, AvailabilityResult, error) {
	if workstations <= 0 {
		workstations, days = 53, 10
	}
	acfg := trace.DefaultActivityConfig(workstations, days)
	acfg.Seed = seed
	tr := trace.GenerateActivity(acfg)
	totalIdle := 0.0
	totalAt2 := 0.0
	for day := 0; day < days; day++ {
		from, to := trace.Daytime(day)
		totalIdle += tr.FractionFullyIdle(from, to)
		at2 := sim.Time(day)*24*sim.Hour + 14*sim.Hour
		totalAt2 += float64(tr.AvailableAt(at2)) / float64(workstations)
	}
	res := AvailabilityResult{
		FullyIdleDaytime: totalIdle / float64(days),
		MeanAvailableAt2: totalAt2 / float64(days),
	}
	tbl := stats.NewTable(fmt.Sprintf("E9 — workstation availability (%d machines, %d days)", workstations, days),
		"Metric", "Paper", "Measured")
	tbl.AddRow("available 100% of daytime", "> 60%", fmt.Sprintf("%.0f%%", res.FullyIdleDaytime*100))
	tbl.AddRow("available at 2pm (instant)", "-", fmt.Sprintf("%.0f%%", res.MeanAvailableAt2*100))
	return Report{
		ID:    "E9",
		Title: "Idle machines are plentiful even at the busiest times",
		Table: tbl,
		Notes: "1-minute idleness rule, diurnal synthetic traces calibrated to the Berkeley measurement",
	}, res, nil
}
