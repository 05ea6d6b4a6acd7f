package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// runOpts configures one workload run.
type runOpts struct {
	seed    int64
	seconds float64 // timed reps continue until this much host time has passed
	reps    int     // if > 0, exactly this many timed reps instead
	trace   bool
	out     string
	scale   float64
}

// minTimedReps keeps a median meaningful on a slow host.
const minTimedReps = 3

// repSample is what the host measured during one rep.
type repSample struct {
	setupS float64 // wall time from the rep's start to ready()
	runS   float64 // wall time of the op phase
	cpuS   float64 // process CPU time during the op phase
	alloc  uint64  // heap bytes allocated during the op phase
	gcs    uint32  // GC cycles completed during the op phase
	ops    int64
	failed int64
	events int64
}

// measureRep runs one rep on a collected heap and measures its set-up
// and op phases. tr and profile are nil except for the traced rep,
// whose op phase is CPU-profiled into profile.
func measureRep(w *workload, rc repConfig, tr *tracer, profile io.Writer) (repSample, *outcome, error) {
	runtime.GC()
	var m1, m2 runtime.MemStats
	var setupEnd, t1 time.Time
	var c1 float64
	var profErr error
	t0 := time.Now()
	rep := tr.begin("rep "+w.name, 0)
	h := &harness{tr: tr, setup: tr.begin("setup", rep)}
	h.ready = func() {
		setupEnd = time.Now()
		tr.end(h.setup, 0)
		// Collect the set-up's garbage outside both timed phases, so
		// every op phase starts from the same heap and GC pacing.
		runtime.GC()
		if profile != nil {
			profErr = pprof.StartCPUProfile(profile)
		}
		h.run = tr.begin("run", rep)
		runtime.ReadMemStats(&m1)
		c1 = cpuSeconds()
		t1 = time.Now()
	}
	out, err := w.rep(rc, h)
	t2 := time.Now()
	c2 := cpuSeconds()
	if profile != nil && !setupEnd.IsZero() && profErr == nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m2)
	tr.end(h.run, 0)
	tr.end(rep, 0)
	if err == nil {
		err = profErr
	}
	if err != nil {
		return repSample{}, nil, err
	}
	if setupEnd.IsZero() {
		return repSample{}, nil, fmt.Errorf("workload never finished its set-up")
	}
	if out.ops == 0 {
		return repSample{}, nil, fmt.Errorf("no op completed")
	}
	return repSample{
		setupS: setupEnd.Sub(t0).Seconds(),
		runS:   t2.Sub(t1).Seconds(),
		cpuS:   c2 - c1,
		alloc:  m2.TotalAlloc - m1.TotalAlloc,
		gcs:    m2.NumGC - m1.NumGC,
		ops:    out.ops,
		failed: out.failed,
		events: out.events,
	}, out, nil
}

// report is one workload run's result, written as <out>/<workload>-seed<N>[.traced].json.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Correct     bool               `json:"correct"`
	Error       string             `json:"error,omitempty"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	OpFailRatio float64            `json:"op_fail_ratio"`
	OpsPerRep   int64              `json:"ops_per_rep"`
	TimedReps   int                `json:"timed_reps"`
	Digest      string             `json:"digest"`
	EndToEnd    map[string]summary `json:"end_to_end,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Host        fingerprint        `json:"host"`
}

// runWorkload is one run: an untimed warm-up rep, the timed reps, and
// with o.trace one traced rep. Every rep must reproduce the warm-up's
// digest. A failed correctness gate comes back as Correct=false.
func runWorkload(w *workload, o runOpts) *report {
	r := &report{Workload: w.name, Seed: o.seed, Host: hostFingerprint()}
	fail := func(err error) *report {
		r.Error = err.Error()
		return r
	}
	rc := repConfig{seed: o.seed, scale: o.scale}
	_, warm, err := measureRep(w, rc, nil, nil)
	if err != nil {
		return fail(fmt.Errorf("warm-up rep: %w", err))
	}
	r.Digest, r.OpsPerRep = warm.digest(), warm.ops+warm.failed

	var samples []repSample
	start := time.Now()
	for {
		if o.reps > 0 && len(samples) == o.reps ||
			o.reps <= 0 && len(samples) >= minTimedReps && time.Since(start).Seconds() >= o.seconds {
			break
		}
		s, out, err := measureRep(w, rc, nil, nil)
		if err != nil {
			return fail(fmt.Errorf("timed rep %d: %w", len(samples)+1, err))
		}
		if d := out.digest(); d != r.Digest {
			return fail(fmt.Errorf("timed rep %d: virtual-time digest %s differs from the warm-up's %s", len(samples)+1, d, r.Digest))
		}
		samples = append(samples, s)
		r.Attempted += s.ops + s.failed
		r.Failed += s.failed
	}
	r.TimedReps = len(samples)
	r.OpFailRatio = float64(r.Failed) / float64(r.Attempted)
	// Read before the traced rep, whose spans would inflate it.
	rss, err := peakRSSMB()
	if err != nil {
		return fail(err)
	}
	series := func(f func(s repSample) float64) summary {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return summarize(xs)
	}
	r.EndToEnd = map[string]summary{
		"ops_per_s":          series(func(s repSample) float64 { return float64(s.ops) / s.runS }),
		"host_cpu_us_per_op": series(func(s repSample) float64 { return s.cpuS * 1e6 / float64(s.ops) }),
		"setup_s":            series(func(s repSample) float64 { return s.setupS }),
		"alloc_bytes_per_op": series(func(s repSample) float64 { return float64(s.alloc) / float64(s.ops) }),
		"peak_rss_mb":        summarize([]float64{rss}),
	}
	if !o.trace {
		r.Correct = true
		return r
	}

	tr := newTracer()
	profile := filepath.Join(o.out, w.name+".cpu.pprof")
	f, err := os.Create(profile)
	if err != nil {
		return fail(err)
	}
	s, out, err := measureRep(w, rc, tr, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(fmt.Errorf("traced rep: %w", err))
	}
	if d := out.digest(); d != r.Digest {
		return fail(fmt.Errorf("traced rep: virtual-time digest %s differs from the warm-up's %s", d, r.Digest))
	}
	shares, cpuSamples, err := profileShares(profile)
	if err != nil {
		return fail(err)
	}
	if err := tr.writeChrome(filepath.Join(o.out, w.name+".trace.json")); err != nil {
		return fail(err)
	}

	layers := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		layers[m.name] = layerDefault(m.name)
	}
	for name, v := range out.layers {
		if _, ok := layers[name]; !ok {
			return fail(fmt.Errorf("workload set undeclared per-layer metric %q", name))
		}
		layers[name] = v
	}
	layers["sim.events_per_host_s"] = series(func(s repSample) float64 { return float64(s.events) / s.runS }).Median
	layers["runtime.gc_cycles_per_kop"] = series(func(s repSample) float64 { return 1000 * float64(s.gcs) / float64(s.ops) }).Median
	for bucket, share := range shares {
		name := bucket + ".host_share"
		if strings.HasPrefix(bucket, "runtime.") {
			name = bucket + "_share"
		}
		if _, ok := layers[name]; !ok {
			return fail(fmt.Errorf("profile bucket %q has no per-layer metric", bucket))
		}
		layers[name] = share
	}
	layers["trace.cpu_samples"] = float64(cpuSamples)
	layers["trace.overhead"] = (s.setupS + s.runS) / series(func(s repSample) float64 { return s.setupS + s.runS }).Median
	r.PerLayer = layers
	r.Correct = true
	return r
}

// runChild runs one workload in this process and prints its metrics:
// one "workload metric value unit" line each, then the JSON result
// line. Exit status 1 means a correctness gate failed.
func runChild(w *workload, o runOpts, stdout, stderr io.Writer) int {
	r := runWorkload(w, o)
	if o.out != "" {
		if err := writeJSON(filepath.Join(o.out, reportName(w.name, o.seed, o.trace)), r); err != nil {
			fmt.Fprintf(stderr, "nowperf: %v\n", err)
			return 1
		}
	}
	if !r.Correct {
		fmt.Fprintf(stderr, "nowperf: %s (seed %d): %s\n", w.name, o.seed, r.Error)
		return 1
	}
	metrics := map[string]map[string]any{}
	emit := func(m metricDef, v float64) {
		printMetric(stdout, w.name, m, v)
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	if o.trace {
		for _, m := range perLayer {
			emit(m, r.PerLayer[m.name])
		}
	} else {
		for _, m := range endToEnd {
			emit(m, r.EndToEnd[m.name].Median)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "nowperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printMetric writes one "workload metric value unit" line, the value
// with every digit it has.
func printMetric(w io.Writer, workload string, m metricDef, v float64) {
	fmt.Fprintf(w, "%s %s %s %s\n", workload, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
}

func reportName(workload string, seed int64, traced bool) string {
	if traced {
		return fmt.Sprintf("%s-seed%d.traced.json", workload, seed)
	}
	return fmt.Sprintf("%s-seed%d.json", workload, seed)
}

// childTimeout bounds one child process, far above any workload run.
const childTimeout = 10 * time.Minute

// runAll runs every workload, each run in its own child process, one at
// a time: a timed run, and with o.trace a traced run. It prints every
// metric line, writes results.json (and layers.json), and fails if a
// run fails a gate or the traced run disagrees with the timed one.
func runAll(o runOpts, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "nowperf: %v\n", err)
		return 1
	}
	var runs []*report
	layers := map[string]map[string]float64{}
	failed := false
	fail := func(w string, err error) {
		fmt.Fprintf(stderr, "nowperf: %s (seed %d): %v\n", w, o.seed, err)
		failed = true
	}
	for _, w := range workloads {
		timed, err := runChildProcess(self, w.name, false, o, stderr)
		if err != nil {
			fail(w.name, err)
			continue
		}
		runs = append(runs, timed)
		for _, m := range endToEnd {
			printMetric(stdout, w.name, m, timed.EndToEnd[m.name].Median)
		}
		if !o.trace {
			continue
		}
		traced, err := runChildProcess(self, w.name, true, o, stderr)
		if err == nil && traced.Digest != timed.Digest {
			err = fmt.Errorf("traced run digest %s differs from the timed run's %s", traced.Digest, timed.Digest)
		}
		if err != nil {
			fail(w.name, err)
			continue
		}
		layers[w.name] = traced.PerLayer
		for _, m := range perLayer {
			printMetric(stdout, w.name, m, traced.PerLayer[m.name])
		}
	}
	res := map[string]any{
		"host":    hostFingerprint(),
		"seconds": o.seconds,
		"seed":    o.seed,
		"runs":    runs,
	}
	if err := writeJSON(filepath.Join(o.out, "results.json"), res); err != nil {
		fmt.Fprintf(stderr, "nowperf: %v\n", err)
		return 1
	}
	if o.trace && len(layers) > 0 {
		if err := writeJSON(filepath.Join(o.out, "layers.json"), layers); err != nil {
			fmt.Fprintf(stderr, "nowperf: %v\n", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runChildProcess runs one workload in a fresh process and reads back
// its report.
func runChildProcess(self, workload string, traced bool, o runOpts, stderr io.Writer) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-out", o.out)
	cmd.Stdout = io.Discard
	cmd.Stderr = stderr
	path := filepath.Join(o.out, reportName(workload, o.seed, traced))
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	runErr := cmd.Run()
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if !r.Correct {
		return nil, fmt.Errorf("%s", r.Error)
	}
	if runErr != nil {
		return nil, runErr
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
