// Command nowperf is the NOW simulator's end-to-end host-cost
// benchmark: what the simulator costs to run, not what it simulates.
// It drives five seeded workloads through the root now facade only,
// checks that every rep reproduces the same virtual-time results, and
// reports host throughput, CPU, set-up time, allocation and peak memory
// per workload, plus a per-layer breakdown from a separate traced rep.
//
// Two modes:
//
//	nowperf -workload NAME -seed N -seconds S -trace 0|1 [-out DIR]
//	    runs one workload in this process: an untimed warm-up rep, then
//	    timed reps on fresh engines until S seconds have passed (at
//	    least three), then — with -trace 1 — one traced rep. It prints
//	    one "workload metric value unit" line per metric and, last, one
//	    JSON object {correct, attempted, failed, metrics}.
//
//	nowperf [-seed N] [-trace 1] -out DIR
//	    runs every workload, each in its own child process, one at a
//	    time, and writes DIR/results.json (and DIR/layers.json with
//	    -trace 1). It exits non-zero, naming the workload, if any
//	    correctness gate fails or the traced run disagrees with the
//	    timed one.
//
// See bench/README.md for the metric and workload reference.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	// The benchmark's contract: at most two cores, whatever the host has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nowperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Int64("seed", 1, "seed that generates every input")
	seconds := fs.Float64("seconds", 15, "host seconds of timed reps per workload run")
	trace := fs.Int("trace", 0, "1 adds a traced rep and reports the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "directory for results, traces and profiles (needed by -trace 1 and the all-workload mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "nowperf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "nowperf: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "nowperf: -seconds must be positive\n")
		return 2
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, scale: 1}
	if o.out == "" && (o.trace || *workload == "") {
		fmt.Fprintf(stderr, "nowperf: -out is required with -trace 1 and in the all-workload mode\n")
		return 2
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			fmt.Fprintf(stderr, "nowperf: %v\n", err)
			return 1
		}
	}
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "nowperf: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		return runChild(w, o, stdout, stderr)
	}
	return runAll(o, stdout, stderr)
}
