package experiments

import (
	"fmt"

	"github.com/nowproject/now/internal/apps"
	"github.com/nowproject/now/internal/coopcache"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stats"
	"github.com/nowproject/now/internal/trace"
)

// The ablations DESIGN.md §4 calls out: each isolates one design choice
// the paper argues for and measures what happens without it.

// PolicyRow is one recruitment-policy outcome.
type PolicyRow struct {
	Policy       glunix.RecruitPolicy
	Slowdown     float64
	UserP95Delay float64 // seconds a returning user waits, 95th percentile
	Disturbed    int64
	Restarts     int64
}

// RecruitmentPolicyAblation reruns the Figure 3 scenario (one size)
// under the three user-return policies: the paper's migrate-on-return,
// kill-and-restart, and ignore-the-user. It shows why the paper insists
// on migration: restart burns the job's progress, ignoring the user
// burns the social contract.
func RecruitmentPolicyAblation(ws, days int, seed int64) (Report, []PolicyRow, error) {
	length := sim.Duration(days) * 24 * sim.Hour
	horizon := length + 12*sim.Hour
	jcfg := trace.DefaultJobTraceConfig(length)
	jcfg.Seed = seed
	jcfg.MeanInterarrival = 65 * sim.Minute
	jcfg.DevFraction = 0.5
	jobs := trace.GenerateJobs(jcfg)
	for i := range jobs {
		if jobs[i].CommGrain < 5*sim.Second {
			jobs[i].CommGrain = 5 * sim.Second
		}
	}
	ideal := make(map[int]sim.Duration, len(jobs))
	for _, tj := range jobs {
		ideal[tj.ID] = tj.Work
	}
	acfg := trace.DefaultActivityConfig(ws, days)
	acfg.Seed = seed
	// A busier building than the Berkeley default: users come and go at
	// most desks, so guests are evicted often — the regime where the
	// user-return policy actually matters.
	acfg.UnusedProb = 0.30
	acfg.MeanSessions = 14
	activity := trace.GenerateActivity(acfg)

	var rows []PolicyRow
	tbl := stats.NewTable(fmt.Sprintf("Ablation — user-return policy (%d workstations)", ws),
		"Policy", "Job slowdown", "User p95 delay (s)", "Users disturbed", "Job restarts")
	for _, policy := range []glunix.RecruitPolicy{
		glunix.MigrateOnReturn, glunix.RestartOnReturn, glunix.IgnoreUser,
	} {
		cfg := glunix.DefaultConfig(ws)
		cfg.Policy = policy
		cfg.HeartbeatInterval = 5 * sim.Minute
		cfg.CheckpointInterval = 30 * sim.Minute
		e := sim.NewEngine(seed)
		c, err := glunix.New(e, cfg)
		var res glunix.MixedResult
		if err == nil {
			res, err = c.RunMixed(activity, jobs, horizon)
		}
		e.Close()
		if err != nil {
			return Report{}, nil, fmt.Errorf("policy ablation %v: %w", policy, err)
		}
		var sl stats.Summary
		for id, resp := range res.Responses {
			if base := ideal[id]; base > 0 {
				sl.Add(float64(resp) / float64(base))
			}
		}
		row := PolicyRow{
			Policy:       policy,
			Slowdown:     sl.Mean(),
			UserP95Delay: res.Master.UserDelays.Percentile(95),
			Disturbed:    res.Master.UserDisturbed,
			Restarts:     res.Master.Restarts,
		}
		rows = append(rows, row)
		tbl.AddRow(policy.String(), fmt.Sprintf("%.2f", row.Slowdown),
			fmt.Sprintf("%.2f", row.UserP95Delay),
			fmt.Sprintf("%d", row.Disturbed), fmt.Sprintf("%d", row.Restarts))
	}
	return Report{
		ID:    "A1",
		Title: "Ablation: migrate-on-return vs restart vs ignore-the-user",
		Table: tbl,
		Notes: "the paper's policy (migrate) keeps both job progress and the interactive guarantee",
	}, rows, nil
}

// NChanceRow is one recirculation-count outcome.
type NChanceRow struct {
	N        int
	MissRate float64
	Response sim.Duration
}

// NChanceAblation sweeps the recirculation count of cooperative
// caching: 0 is greedy forwarding, 2 is the paper's algorithm, higher
// buys little — the diminishing-returns curve from Dahlin's study.
func NChanceAblation(accesses int) (Report, []NChanceRow, error) {
	tcfg := trace.DefaultFileTraceConfig()
	tcfg.Accesses = accesses
	all := trace.GenerateFileTrace(tcfg)
	warm := len(all) * 2 / 5

	var rows []NChanceRow
	tbl := stats.NewTable("Ablation — N-chance recirculation count",
		"N", "Miss rate", "Read response (ms)")
	for _, n := range []int{0, 1, 2, 4} {
		ccfg := coopcache.DefaultConfig(coopcache.NChance)
		if n == 0 {
			ccfg.Policy = coopcache.Greedy
		}
		ccfg.NChance = n
		ccfg.ClientCacheBlocks = 512
		ccfg.ServerCacheBlocks = 4096
		e := sim.NewEngine(1)
		sys, err := coopcache.New(e, ccfg)
		if err != nil {
			e.Close()
			return Report{}, nil, err
		}
		if err := coopcache.RunTrace(e, sys, all[:warm]); err != nil {
			e.Close()
			return Report{}, nil, err
		}
		sys.ResetStats()
		if err := coopcache.RunTrace(e, sys, all[warm:]); err != nil {
			e.Close()
			return Report{}, nil, err
		}
		e.Close()
		rows = append(rows, NChanceRow{N: n, MissRate: sys.Stats().MissRate(),
			Response: sys.MeanReadResponse()})
		tbl.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.1f%%", sys.Stats().MissRate()*100),
			stats.FormatFloat(sys.MeanReadResponse().Milliseconds()))
	}
	return Report{
		ID:    "A2",
		Title: "Ablation: singlet recirculation count (0 = greedy forwarding)",
		Table: tbl,
		Notes: "the paper's N=2 captures most of the benefit; more lives add traffic, not hits",
	}, rows, nil
}

// BufferRow is one buffer-size outcome for Column.
type BufferRow struct {
	Slots    int
	Slowdown float64
}

// ColumnBufferAblation sweeps destination buffering for the Column
// benchmark under local scheduling — the paper's aside that "as long as
// enough buffering exists on the destination processor, the sending
// processor is not significantly slowed."
func ColumnBufferAblation(seed int64) (Report, []BufferRow, error) {
	run := func(slots int, cosched bool) (sim.Duration, error) {
		e := sim.NewEngine(seed)
		defer e.Close()
		cfg := apps.DefaultContentionConfig(apps.Column, 2, cosched)
		cfg.BufferSlots = slots
		res, err := apps.RunContention(e, cfg)
		if err != nil {
			return 0, err
		}
		return res.MaxElapsed(), nil
	}
	var rows []BufferRow
	tbl := stats.NewTable("Ablation — Column vs destination buffering (2 jobs, local scheduling)",
		"Buffer slots", "Slowdown vs coscheduled")
	for _, slots := range []int{8, 16, 32, 128, 1024} {
		local, err := run(slots, false)
		if err != nil {
			return Report{}, nil, err
		}
		gang, err := run(slots, true)
		if err != nil {
			return Report{}, nil, err
		}
		s := float64(local) / float64(gang)
		rows = append(rows, BufferRow{Slots: slots, Slowdown: s})
		tbl.AddRow(fmt.Sprintf("%d", slots), fmt.Sprintf("%.2fx", s))
	}
	return Report{
		ID:    "A3",
		Title: "Ablation: buffering rescues Column (the paper's aside)",
		Table: tbl,
		Notes: "with deep buffers the burst is absorbed and drained next quantum; starved buffers stall the sender",
	}, rows, nil
}

// OverheadRow is one point of the overhead-vs-bandwidth sweep.
type OverheadRow struct {
	Label      string
	OneWay     sim.Duration
	NFSImprove float64
}

// OverheadVsBandwidthAblation isolates the paper's core networking
// claim by sweeping per-message overhead and bandwidth independently on
// the NFS workload: cutting overhead 10× helps ~4× more than raising
// bandwidth 15×.
func OverheadVsBandwidthAblation() (Report, []OverheadRow, error) {
	ops := trace.GenerateNFS(trace.DefaultNFSTraceConfig())
	total := func(bwMbps float64, perSide sim.Duration) sim.Duration {
		var t sim.Duration
		for _, op := range ops {
			for _, payload := range []int{op.RequestBytes, op.ReplyBytes} {
				wire := sim.PerByte(int64(payload+58), sim.Bandwidth(bwMbps))
				t += 2*perSide + wire + 50*sim.Microsecond
			}
		}
		return t
	}
	base := total(10, 180*sim.Microsecond)
	cases := []struct {
		label string
		bw    float64
		o     sim.Duration
	}{
		{"baseline: 10 Mb/s, 180µs/side", 10, 180 * sim.Microsecond},
		{"15× bandwidth only", 155, 180 * sim.Microsecond},
		{"10× less overhead only", 10, 18 * sim.Microsecond},
		{"both", 155, 18 * sim.Microsecond},
	}
	var rows []OverheadRow
	tbl := stats.NewTable("Ablation — overhead vs bandwidth on the NFS workload",
		"Upgrade", "Total-time improvement")
	for _, c := range cases {
		t := total(c.bw, c.o)
		imp := 1 - float64(t)/float64(base)
		rows = append(rows, OverheadRow{Label: c.label, NFSImprove: imp})
		tbl.AddRow(c.label, fmt.Sprintf("%.0f%%", imp*100))
	}
	return Report{
		ID:    "A4",
		Title: "Ablation: for small-message workloads, overhead is the lever",
		Table: tbl,
		Notes: "the paper: 'emerging high-bandwidth network technologies will provide a major advance only if they are accompanied by corresponding reductions in latency and processor overhead'",
	}, rows, nil
}
