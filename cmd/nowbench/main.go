// Command nowbench regenerates every table and figure of "A Case for
// NOW (Networks of Workstations)" and prints them as paper-vs-measured
// tables.
//
// Usage:
//
//	nowbench              # run everything (several minutes: F3 dominates)
//	nowbench -quick       # reduced scales, under a minute
//	nowbench -only T2,F4  # a comma-separated subset of experiment ids
//	nowbench -json        # machine-readable reports (scripts/bench.sh)
//
// Experiment ids follow DESIGN.md §3 and the rows of
// experiments.Studies: T1 T2 T3 T4 F1 F2 F3 F4, the prose claims E5 E6
// E7 E8 E9 E10, the availability studies AV1 (docs/FAULTS.md) and AV2
// (docs/CONTROLPLANE.md), the collective scale study SC1, the
// sharded-engine throughput study SC2 (DESIGN.md §10; -shards pins its
// worker count), the topology study SC3 (crossbar vs fat-tree vs torus,
// software tree vs in-network combining; DESIGN.md §13), the xFS
// sequential-scan pipelining study ST2, and the wide-area federation
// study WA1 (cross-cluster caching vs home re-fetch; DESIGN.md §14).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/nowproject/now/internal/experiments"
	"github.com/nowproject/now/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nowbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nowbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced experiment scales (finishes in well under a minute)")
	only := fs.String("only", "", "comma-separated experiment ids to run (default: all)")
	ablations := fs.Bool("ablations", false, "also run the design-choice ablations (A1-A4)")
	asJSON := fs.Bool("json", false, "emit reports as a JSON array instead of text tables")
	metricsPath := fs.String("metrics", "", "write the instrumented experiments' metrics registries to this JSON file")
	shards := fs.Int("shards", 0, "pin the SC2 worker sweep to this single worker count (0 = full 1/2/4/8 sweep)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	// -only names exactly what runs, ablations included; without it
	// every study runs, and the ablations only with -ablations.
	selected := func(s experiments.Study) bool {
		if len(want) > 0 {
			return want[s.ID]
		}
		return !s.Ablation || *ablations
	}
	opts := experiments.Options{Quick: *quick, Shards: *shards}

	// Instrumented experiments carry metrics registries on their
	// reports; -metrics snapshots each into one stable-ordered file.
	metrics := experiments.NewMetricsSet()
	writeMetrics := func() error {
		if *metricsPath == "" {
			return nil
		}
		return obs.WriteFileStable(*metricsPath, metrics)
	}

	if *asJSON {
		out := []experiments.JSONReport{} // non-nil so an empty selection encodes as [], not null
		for _, s := range experiments.Studies {
			if !selected(s) {
				continue
			}
			rep, err := s.Run(opts)
			if err != nil {
				return fmt.Errorf("%s: %w", s.ID, err)
			}
			metrics.Add(rep)
			out = append(out, rep.JSON())
		}
		if err := writeMetrics(); err != nil {
			return err
		}
		// The same stable encoder the metrics exporters use, so tooling
		// sees one JSON shape discipline everywhere.
		return obs.WriteStable(os.Stdout, out)
	}
	fmt.Println("Regenerating the evaluation of 'A Case for NOW' (IEEE Micro, Feb 1995)")
	fmt.Println(strings.Repeat("=", 72))
	for _, s := range experiments.Studies {
		if !selected(s) {
			continue
		}
		start := time.Now()
		rep, err := s.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		metrics.Add(rep)
		fmt.Println()
		fmt.Print(rep.String())
		fmt.Printf("(%s regenerated in %v)\n", s.ID, time.Since(start).Round(time.Millisecond))
	}
	return writeMetrics()
}
