package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeAllWorkloads runs every workload at 1/50 scale with two timed
// reps and a traced rep: every gate must pass (byte checks, fabric
// conservation, scenario assertions, equal digests across all reps), and
// every metric must be emitted under a valid name with a unit.
func TestSmokeAllWorkloads(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		r := runWorkload(w, runOpts{seed: 1, reps: 2, trace: true, out: out, scale: 1.0 / 50})
		if !r.Correct {
			t.Fatalf("%s: %s", w.name, r.Error)
		}
		if r.TimedReps != 2 || r.Attempted != 2*r.OpsPerRep || r.Failed != 0 {
			t.Errorf("%s: %d timed reps, %d attempted of %d per rep, %d failed", w.name, r.TimedReps, r.Attempted, r.OpsPerRep, r.Failed)
		}
		for _, m := range endToEnd {
			s, ok := r.EndToEnd[m.name]
			if !ok || !(s.Median > 0) || math.IsInf(s.Median, 0) {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value", w.name, m.name, s)
			}
		}
		var shares float64
		for _, m := range perLayer {
			v, ok := r.PerLayer[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s missing or not finite (%v)", w.name, m.name, v)
			}
			if strings.HasSuffix(m.name, "_share") {
				shares += v
			}
		}
		if len(r.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(r.PerLayer), len(perLayer))
		}
		if math.Abs(shares-1) > 1e-9 {
			t.Errorf("%s: host shares sum to %v, want 1", w.name, shares)
		}
		var trace struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		data, err := os.ReadFile(filepath.Join(out, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) < 5 {
			t.Errorf("%s: trace has %d events (%v)", w.name, len(trace.TraceEvents), err)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the program's metric and workload
// lists identical to the contract in BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !metricName.MatchString(m.Name) || m.Unit == "" || (m.Better != "higher" && m.Better != "lower") {
				t.Errorf("%s: bad entry %+v", kind, m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || !metricName.MatchString(w.Name) || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestDigestMismatchFailsRun: a workload whose virtual-time result
// changes from rep to rep must fail the run.
func TestDigestMismatchFailsRun(t *testing.T) {
	n := int64(0)
	w := &workload{name: "drifting", rep: func(rc repConfig, h *harness) (*outcome, error) {
		h.ready()
		n++
		return &outcome{ops: 1, events: n}, nil
	}}
	r := runWorkload(w, runOpts{seed: 1, reps: 2, scale: 1})
	if r.Correct || !strings.Contains(r.Error, "digest") {
		t.Fatalf("run with drifting digest: correct=%v error=%q", r.Correct, r.Error)
	}
}

// TestImportsOnlyTheFacade: the benchmark reaches the simulator through
// the root now package alone, never an internal/ package.
func TestImportsOnlyTheFacade(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files found (%v)", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "internal" || strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal") {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Fatalf("summarize(1..10) = %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.Q1 != 1 || s.Q3 != 4 || s.Median != 2 {
		t.Fatalf("summarize(1,2,4) = %+v", s)
	}
}

func TestClassifyStacks(t *testing.T) {
	am := nowInternal + "proto/am.(*Endpoint).handleRequest"
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "runtime.newobject", am, nowInternal + "sim.(*Proc).run"}, "am"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memmove", "runtime.copystack", "runtime.newstack", am}, "runtime.stack"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.chansend1", nowInternal + "sim.(*Engine).dispatch"}, "runtime.sched"},
		{[]string{"bytes.Equal (inline)", "main.xfsReadMiss.func1"}, "bench"},
		{[]string{nowInternal + "lru.(*Cache[go.shape.struct { F github.com/x/y.ID }]).Get", nowInternal + "xfs.(*Client).Read"}, "xfs"},
		{[]string{"runtime.main"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}
