// Command nowtrace generates and summarises the synthetic traces that
// stand in for the paper's measurement data, and optionally writes them
// as CSV for external analysis.
//
// Usage:
//
//	nowtrace -kind activity -ws 53 -days 2
//	nowtrace -kind jobs -hours 48 -csv jobs.csv
//	nowtrace -kind files -accesses 50000
//	nowtrace -kind nfs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	now "github.com/nowproject/now"
	"github.com/nowproject/now/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nowtrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nowtrace", flag.ContinueOnError)
	kind := fs.String("kind", "activity", "trace kind: activity, jobs, files, nfs")
	ws := fs.Int("ws", 53, "workstations (activity)")
	days := fs.Int("days", 2, "days (activity)")
	hours := fs.Int("hours", 48, "hours (jobs)")
	accesses := fs.Int("accesses", 50_000, "block accesses (files)")
	seed := fs.Int64("seed", 1, "random seed")
	csvPath := fs.String("csv", "", "write the raw trace to this CSV file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var out *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	var write func(w io.Writer) error
	switch *kind {
	case "activity":
		cfg := trace.DefaultActivityConfig(*ws, *days)
		cfg.Seed = *seed
		tr := trace.GenerateActivity(cfg)
		fmt.Printf("activity trace: %d workstations, %d days, %d events\n",
			tr.Workstations, *days, len(tr.Events))
		for day := 0; day < *days; day++ {
			from, to := trace.Daytime(day)
			fmt.Printf("  day %d: %.0f%% of machines fully idle 9am-5pm\n",
				day, tr.FractionFullyIdle(from, to)*100)
		}
		write = func(w io.Writer) error { return trace.WriteActivityCSV(w, tr) }
	case "jobs":
		cfg := trace.DefaultJobTraceConfig(now.Duration(*hours) * now.Hour)
		cfg.Seed = *seed
		jobs := trace.GenerateJobs(cfg)
		fmt.Printf("parallel job log: %d jobs over %d hours, total work %v\n",
			len(jobs), *hours, trace.TotalWork(jobs))
		hist := map[int]int{}
		for _, j := range jobs {
			hist[j.Nodes]++
		}
		for _, n := range []int{1, 2, 4, 8, 16, 32} {
			if hist[n] > 0 {
				fmt.Printf("  %2d-node jobs: %d\n", n, hist[n])
			}
		}
		write = func(w io.Writer) error { return trace.WriteJobsCSV(w, jobs) }
	case "files":
		cfg := trace.DefaultFileTraceConfig()
		cfg.Accesses = *accesses
		cfg.Seed = *seed
		accs := trace.GenerateFileTrace(cfg)
		writes := 0
		sharedN := 0
		for _, a := range accs {
			if a.Write {
				writes++
			}
			if int(a.File) < cfg.SharedFiles {
				sharedN++
			}
		}
		fmt.Printf("file trace: %d accesses, %d clients; %.0f%% shared, %.0f%% writes\n",
			len(accs), cfg.Clients,
			float64(sharedN)/float64(len(accs))*100, float64(writes)/float64(len(accs))*100)
		write = func(w io.Writer) error { return trace.WriteFileAccessCSV(w, accs) }
	case "nfs":
		ops := trace.GenerateNFS(trace.DefaultNFSTraceConfig())
		small, total := 0, 0
		for _, op := range ops {
			total += 2
			if op.RequestBytes < 200 {
				small++
			}
			if op.ReplyBytes < 200 {
				small++
			}
		}
		fmt.Printf("NFS trace: %d operations; %.1f%% of messages under 200 bytes\n",
			len(ops), float64(small)/float64(total)*100)
		write = func(w io.Writer) error { return trace.WriteNFSCSV(w, ops) }
	default:
		return fmt.Errorf("unknown trace kind %q", *kind)
	}
	if out == nil {
		return nil
	}
	if err := write(out); err != nil {
		return err
	}
	return out.Close()
}
