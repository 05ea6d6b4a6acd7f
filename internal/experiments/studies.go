package experiments

import (
	"github.com/nowproject/now/internal/coopcache"
	"github.com/nowproject/now/internal/sim"
)

// Options are the inputs of one study run that are not part of its
// configuration.
type Options struct {
	// Quick selects the study's reduced -quick configuration.
	Quick bool
	// Shards pins SC2's worker sweep to this one count (0 keeps the
	// row's sweep). The worker count changes no deterministic column,
	// so it is an execution input, not a scale; other rows ignore it.
	Shards int
}

// Study is one row of the study table: an experiment id and the two
// configurations it runs at.
type Study struct {
	// ID is the experiment id from DESIGN.md §3.
	ID string
	// Ablation marks the design-choice ablations (A1–A4), which nowbench
	// runs only when asked.
	Ablation bool
	// Full and Quick are the configurations the study runs at full and
	// at -quick scale; both nil for a study that takes none.
	Full, Quick any
	run         func(cfg any, o Options) (Report, error)
}

// Run regenerates the study at the scale o selects.
func (s Study) Run(o Options) (Report, error) {
	cfg := s.Full
	if o.Quick {
		cfg = s.Quick
	}
	return s.run(cfg, o)
}

// scaled builds the row of a study that takes a configuration.
func scaled[C any](id string, full, quick C, run func(C, Options) (Report, error)) Study {
	return Study{ID: id, Full: full, Quick: quick, run: func(cfg any, o Options) (Report, error) {
		return run(cfg.(C), o)
	}}
}

// fixed builds the row of a study that takes no configuration: its
// full and -quick runs are the same run.
func fixed(id string, run func() (Report, error)) Study {
	return Study{ID: id, run: func(any, Options) (Report, error) { return run() }}
}

// report drops a study's typed rows.
func report[R any](rep Report, _ R, err error) (Report, error) { return rep, err }

// AV1 and AV2 share their scales. Full is a small NOW where a single
// crash is a visible fraction of capacity; -quick halves it, small
// enough for CI and large enough that one failed store still shows.
var (
	availabilityFull  = AvailabilityConfig{Workstations: 16, ReadStreams: 4}
	availabilityQuick = AvailabilityConfig{Workstations: 8, ReadStreams: 2}
)

// Studies is the study table, in nowbench's run order: the paper's
// tables and figures, its prose claims, the studies this reproduction
// adds, and the ablations. It is the only place that pairs a study's id
// with its full and -quick configurations.
var Studies = []Study{
	fixed("T1", func() (Report, error) { r, _ := Table1(); return r, nil }),
	fixed("F1", func() (Report, error) { r, _ := Figure1(); return r, nil }),
	fixed("T2", func() (Report, error) { return report(Table2()) }),
	scaled("F2", []int64{2, 4, 6, 8, 12, 16}, []int64{4, 8},
		func(sizesMB []int64, _ Options) (Report, error) { return report(Figure2(sizesMB)) }),
	// The full T3 runs all three policies; -quick drops greedy
	// forwarding, the ablation, and shortens the trace.
	scaled("T3",
		Table3Config{Accesses: 120_000, Policies: []coopcache.Policy{coopcache.ClientServer, coopcache.Greedy, coopcache.NChance}},
		Table3Config{Accesses: 40_000, Policies: []coopcache.Policy{coopcache.ClientServer, coopcache.NChance}},
		func(cfg Table3Config, _ Options) (Report, error) { return report(Table3(cfg)) }),
	fixed("T4", func() (Report, error) { r, _ := Table4(); return r, nil }),
	// The full F3 covers the paper's sweep.
	scaled("F3",
		Figure3Config{Days: 2, Sizes: []int{32, 48, 64, 96, 128}},
		Figure3Config{Days: 1, Sizes: []int{48, 96}},
		func(cfg Figure3Config, _ Options) (Report, error) { return report(Figure3(cfg)) }),
	scaled("F4", 3, 2, func(maxJobs int, _ Options) (Report, error) { return report(Figure4(maxJobs, 1)) }),
	fixed("E5", func() (Report, error) { return report(NFSStudy()) }),
	fixed("E6", func() (Report, error) { return report(AMMicro()) }),
	fixed("E7", func() (Report, error) { return report(MemoryRestore()) }),
	fixed("E8", func() (Report, error) { return report(SFIOverhead()) }),
	scaled("E9", 10, 3, func(days int, _ Options) (Report, error) { return report(Availability(53, days, 1)) }),
	fixed("E10", func() (Report, error) { return report(SWRAID()) }),
	scaled("AV1", availabilityFull, availabilityQuick,
		func(cfg AvailabilityConfig, _ Options) (Report, error) { return report(FaultStudy(cfg)) }),
	scaled("AV2", availabilityFull, availabilityQuick,
		func(cfg AvailabilityConfig, _ Options) (Report, error) { return report(RemediationStudy(cfg)) }),
	// The full SC1 sweeps 32→1,024 nodes, the paper's ~100-node
	// building block pushed an order of magnitude past it.
	scaled("SC1",
		ScaleConfig{Sizes: []int{32, 64, 128, 256, 512, 1024}, Barriers: 4},
		ScaleConfig{Sizes: []int{32, 64, 128}, Barriers: 2},
		func(cfg ScaleConfig, _ Options) (Report, error) { return report(ScaleCollectives(cfg)) }),
	// The full SC2 sweeps 256→4,096 nodes — four times past SC1's
	// 1,024-rank ceiling — at 1 to 8 workers.
	scaled("SC2",
		ShardScaleConfig{Sizes: []int{256, 1024, 4096}, Workers: []int{1, 2, 4, 8}, Rounds: 4, Barriers: 4},
		ShardScaleConfig{Sizes: []int{64, 256}, Workers: []int{1, 4}, Rounds: 2, Barriers: 2},
		func(cfg ShardScaleConfig, o Options) (Report, error) {
			if o.Shards > 0 {
				cfg.Workers = []int{o.Shards}
			}
			return report(ShardScale(cfg))
		}),
	// The full SC3 sweeps 32→1,024 nodes; -quick keeps all three
	// topologies, so the comparison's shape survives.
	scaled("SC3",
		TopoStudyConfig{Sizes: []int{32, 64, 128, 256, 512, 1024}, Iters: 4},
		TopoStudyConfig{Sizes: []int{32, 64, 128}, Iters: 2},
		func(cfg TopoStudyConfig, _ Options) (Report, error) { return report(TopologyStudy(cfg)) }),
	// ST2 sweeps the paper's building-block sizes.
	scaled("ST2", []int{8, 32, 128}, []int{8, 32},
		func(sizes []int, _ Options) (Report, error) { return report(SeqScan(sizes)) }),
	// The full WA1 sweeps 1–100 ms: the closed form puts the crossover
	// near 10 ms, mid-sweep. -quick trims the sweep and the working set;
	// the crossover stays bracketed.
	scaled("WA1",
		WideAreaConfig{
			Latencies: []sim.Duration{
				1 * sim.Millisecond, 2 * sim.Millisecond, 5 * sim.Millisecond,
				10 * sim.Millisecond, 20 * sim.Millisecond,
				50 * sim.Millisecond, 100 * sim.Millisecond,
			},
			Files: 3,
		},
		WideAreaConfig{
			Latencies: []sim.Duration{
				2 * sim.Millisecond, 5 * sim.Millisecond, 20 * sim.Millisecond, 50 * sim.Millisecond,
			},
			Files: 2,
		},
		func(cfg WideAreaConfig, _ Options) (Report, error) {
			r, _, _, err := WideAreaStudy(cfg)
			return r, err
		}),
	// 48 workstations: tight enough that users actually come back to
	// recruited machines, separating the policies.
	ablation(fixed("A1", func() (Report, error) { return report(RecruitmentPolicyAblation(48, 1, 1)) })),
	ablation(scaled("A2", 120_000, 60_000,
		func(accesses int, _ Options) (Report, error) { return report(NChanceAblation(accesses)) })),
	ablation(fixed("A3", func() (Report, error) { return report(ColumnBufferAblation(1)) })),
	ablation(fixed("A4", func() (Report, error) { return report(OverheadVsBandwidthAblation()) })),
}

// ablation marks s as one of the design-choice ablations.
func ablation(s Study) Study {
	s.Ablation = true
	return s
}
