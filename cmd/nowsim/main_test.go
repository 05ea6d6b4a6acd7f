package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTinyScenario(t *testing.T) {
	if err := run([]string{"-ws", "8", "-hours", "1", "-policy", "migrate"}); err != nil {
		t.Fatal(err)
	}
}

func TestRestartPolicy(t *testing.T) {
	if err := run([]string{"-ws", "6", "-hours", "1", "-policy", "restart", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestBadPolicy(t *testing.T) {
	if err := run([]string{"-policy", "nonsense"}); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestMetricsGoldenDeterminism is the observability layer's end-to-end
// determinism gate: the same seeded scenario, run twice through the
// full CLI path, must export byte-identical metrics and trace JSON.
func TestMetricsGoldenDeterminism(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(n string) ([]byte, []byte) {
		m := filepath.Join(dir, "m"+n+".json")
		tr := filepath.Join(dir, "t"+n+".json")
		if err := run([]string{"-ws", "8", "-hours", "1", "-seed", "5",
			"-metrics", m, "-trace", tr}); err != nil {
			t.Fatal(err)
		}
		mb, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		return mb, tb
	}
	m1, t1 := runOnce("1")
	m2, t2 := runOnce("2")
	if !bytes.Equal(m1, m2) {
		t.Fatal("same seed produced different metrics JSON")
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("same seed produced different trace JSON")
	}
	if len(m1) == 0 || !bytes.Contains(m1, []byte(`"now-metrics/1"`)) {
		t.Fatalf("metrics file malformed:\n%.200s", m1)
	}
}

// TestFaultedRunGoldenDeterminism is the CLI half of the fault
// subsystem's determinism gate: the same generated fault plan, injected
// into the same seeded scenario twice, must export byte-identical
// metrics — including the faults.* counters and fault.* spans.
func TestFaultedRunGoldenDeterminism(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(n string) ([]byte, []byte) {
		m := filepath.Join(dir, "fm"+n+".json")
		tr := filepath.Join(dir, "ft"+n+".json")
		if err := run([]string{"-ws", "8", "-hours", "1", "-seed", "5",
			"-faults", "seed:7", "-metrics", m, "-trace", tr}); err != nil {
			t.Fatal(err)
		}
		mb, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		return mb, tb
	}
	m1, t1 := runOnce("1")
	m2, t2 := runOnce("2")
	if !bytes.Equal(m1, m2) {
		t.Fatal("same fault plan produced different metrics JSON")
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("same fault plan produced different trace JSON")
	}
	if !bytes.Contains(m1, []byte(`"faults.injected"`)) {
		t.Fatalf("faulted run exported no faults.injected counter:\n%.300s", m1)
	}
}

// TestShardedRunGoldenDeterminism is the cross-shard determinism gate
// at the CLI boundary: the same -ws and -seed must export byte-identical
// metrics and trace files — and identical stdout once the single
// machine-dependent "workers:" line is stripped — at 1, 2, 4 and 8
// workers. This is the golden scripts/verify.sh replays.
func TestShardedRunGoldenDeterminism(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(shards int) (metrics, trace []byte, stdout string) {
		m := filepath.Join(dir, fmt.Sprintf("sm%d.json", shards))
		tr := filepath.Join(dir, fmt.Sprintf("st%d.json", shards))
		old := os.Stdout
		rp, wp, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = wp
		runErr := run([]string{"-ws", "32", "-seed", "9",
			"-shards", fmt.Sprint(shards), "-metrics", m, "-trace", tr})
		wp.Close()
		os.Stdout = old
		out, readErr := io.ReadAll(rp)
		if runErr != nil {
			t.Fatalf("shards=%d: %v", shards, runErr)
		}
		if readErr != nil {
			t.Fatal(readErr)
		}
		var kept []string
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "workers:") {
				continue // the one wall-clock line
			}
			kept = append(kept, line)
		}
		mb, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		return mb, tb, strings.Join(kept, "\n")
	}
	m1, t1, out1 := runOnce(1)
	if !bytes.Contains(m1, []byte(`"sim.shard.events{p0}"`)) {
		t.Fatalf("sharded metrics missing shard counters:\n%.300s", m1)
	}
	if !bytes.Contains(m1, []byte(`"net.cross.sent"`)) {
		t.Fatalf("sharded metrics missing cross-partition counters:\n%.300s", m1)
	}
	for _, shards := range []int{2, 4, 8} {
		m, tr, out := runOnce(shards)
		if !bytes.Equal(m, m1) {
			t.Errorf("-shards %d metrics differ from -shards 1", shards)
		}
		if !bytes.Equal(tr, t1) {
			t.Errorf("-shards %d trace differs from -shards 1", shards)
		}
		if out != out1 {
			t.Errorf("-shards %d stdout differs from -shards 1:\n%s\n----\n%s", shards, out, out1)
		}
	}
}

// captureRun runs the CLI with stdout captured, returning the output
// and the run error.
func captureRun(t *testing.T, args []string) (string, error) {
	t.Helper()
	old := os.Stdout
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wp
	runErr := run(args)
	wp.Close()
	os.Stdout = old
	out, readErr := io.ReadAll(rp)
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(out), runErr
}

// TestScenarioRunGoldenDeterminism is the scenario engine's CLI
// determinism gate: the same .scn file, run twice, must print a
// byte-identical report and export byte-identical metrics JSON. This is
// the golden scripts/verify.sh replays against the shipped examples.
func TestScenarioRunGoldenDeterminism(t *testing.T) {
	dir := t.TempDir()
	scn := filepath.Join(dir, "drill.scn")
	script := `scenario cli-drill
seed 7
horizon 1200s
fleet ws 8
at 60s jobs 3 nodes=2 work=120s every=60s grain=10s
at 300s crash 2 for 120s
expect faults.injected == 1 at end
expect glunix.rejoins >= 1 at end
expect glunix.jobs.completed == 3 at end
`
	if err := os.WriteFile(scn, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	runOnce := func(n string) (string, []byte) {
		m := filepath.Join(dir, "scn"+n+".json")
		out, err := captureRun(t, []string{"run", "-metrics", m, scn})
		if err != nil {
			t.Fatalf("run %s: %v\n%s", n, err, out)
		}
		mb, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		return out, mb
	}
	out1, m1 := runOnce("1")
	out2, m2 := runOnce("2")
	if out1 != out2 {
		t.Errorf("same scenario produced different reports:\n%s\n----\n%s", out1, out2)
	}
	if !bytes.Equal(m1, m2) {
		t.Error("same scenario produced different metrics JSON")
	}
	for _, want := range []string{"result: PASS", "faults: 1/1 applied", "scenario.asserts"} {
		if !strings.Contains(out1+string(m1), want) {
			t.Errorf("report+metrics missing %q:\n%s", want, out1)
		}
	}
}

// TestScenarioShardedWorkerInvariance pins the scenario half of the
// DESIGN.md §10 contract at the CLI boundary: a sharded-fleet scenario
// report is byte-identical for any -shards worker count.
func TestScenarioShardedWorkerInvariance(t *testing.T) {
	dir := t.TempDir()
	scn := filepath.Join(dir, "sharded.scn")
	script := `scenario cli-sharded
seed 9
fleet ws 32
fleet shards 8 rounds=2 barriers=2
expect net.drops == 0 at end
expect net.cross.sent > 0 at end
`
	if err := os.WriteFile(scn, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	runOnce := func(workers int) string {
		out, err := captureRun(t, []string{"run", "-shards", fmt.Sprint(workers), scn})
		if err != nil {
			t.Fatalf("workers=%d: %v\n%s", workers, err, out)
		}
		return out
	}
	out1 := runOnce(1)
	if !strings.Contains(out1, "result: PASS") {
		t.Fatalf("sharded scenario did not pass:\n%s", out1)
	}
	for _, workers := range []int{2, 4, 8} {
		if out := runOnce(workers); out != out1 {
			t.Errorf("-shards %d report differs from -shards 1:\n%s\n----\n%s", workers, out, out1)
		}
	}
}

// TestOperatorScenarioShardsInvariance pins that a scenario driven by
// operator verbs (cordon/drain/remediate — the shipped self-healing
// drill) produces a byte-identical report at every -shards worker
// count. Operator scenarios run on the classic single engine, which
// ignores the worker count entirely, so the report must not merely be
// equivalent — it must not change at all.
func TestOperatorScenarioShardsInvariance(t *testing.T) {
	scn := filepath.Join("..", "..", "examples", "scenarios", "self-healing.scn")
	runOnce := func(workers int) string {
		out, err := captureRun(t, []string{"run", "-shards", fmt.Sprint(workers), scn})
		if err != nil {
			t.Fatalf("workers=%d: %v\n%s", workers, err, out)
		}
		return out
	}
	out1 := runOnce(1)
	if !strings.Contains(out1, "result: PASS") {
		t.Fatalf("operator scenario did not pass:\n%s", out1)
	}
	for _, verb := range []string{"cp.cordons", "cp.drains", "remediate.rebuilds"} {
		if !strings.Contains(out1, verb) {
			t.Fatalf("report does not exercise operator verb metric %q:\n%s", verb, out1)
		}
	}
	for _, workers := range []int{2, 4} {
		if out := runOnce(workers); out != out1 {
			t.Errorf("-shards %d report differs from -shards 1:\n%s\n----\n%s", workers, out, out1)
		}
	}
}

// TestScenarioAssertFailureExit pins the exit-code contract: a failed
// assertion still prints the full report, then surfaces errAssertFailed
// (exit 2), distinct from parse errors (exit 1).
func TestScenarioAssertFailureExit(t *testing.T) {
	dir := t.TempDir()
	scn := filepath.Join(dir, "fail.scn")
	script := `scenario cli-fail
seed 1
horizon 600s
fleet ws 4
expect glunix.rejoins >= 100 at end
expect no.such.metric == 0 at end
`
	if err := os.WriteFile(scn, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureRun(t, []string{"run", scn})
	if !errors.Is(err, errAssertFailed) {
		t.Fatalf("want errAssertFailed, got %v", err)
	}
	for _, want := range []string{"result: FAIL", "FAIL", "UNKNOWN", "no such metric"} {
		if !strings.Contains(out, want) {
			t.Errorf("failure report missing %q:\n%s", want, out)
		}
	}

	// Parse errors are ordinary errors, not errAssertFailed.
	bad := filepath.Join(dir, "bad.scn")
	if err := os.WriteFile(bad, []byte("scenario x\nbogus line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureRun(t, []string{"run", bad}); err == nil || errors.Is(err, errAssertFailed) {
		t.Fatalf("parse error misclassified: %v", err)
	}
}

// TestCheckShippedScenarios parses every scenario shipped under
// examples/scenarios/ through the check subcommand.
func TestCheckShippedScenarios(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.scn")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("expected at least 2 shipped scenarios, found %v", files)
	}
	out, err := captureRun(t, append([]string{"check"}, files...))
	if err != nil {
		t.Fatalf("check: %v\n%s", err, out)
	}
	for _, f := range files {
		if !strings.Contains(out, f+": ok") {
			t.Errorf("check output missing %s:\n%s", f, out)
		}
	}
}

// TestShippedScenarioGoldens runs every story shipped under
// examples/scenarios/ and diffs its report, byte for byte, against the
// .report.golden stored beside it. A failed assertion fails the run.
func TestShippedScenarioGoldens(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.scn")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("expected at least 2 shipped scenarios, found %v", files)
	}
	for _, scn := range files {
		golden := strings.TrimSuffix(scn, ".scn") + ".report.golden"
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden report for %s: %v", scn, err)
		}
		out, err := captureRun(t, []string{"run", scn})
		if err != nil {
			t.Errorf("%s: %v\n%s", scn, err, out)
			continue
		}
		if out != string(want) {
			t.Errorf("%s report drifted from %s:\n got:\n%s\nwant:\n%s", scn, golden, out, want)
		}
	}
}

// TestFaultPlanFromFile exercises the file branch of -faults.
func TestFaultPlanFromFile(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "plan.txt")
	if err := os.WriteFile(plan, []byte("10m crash 3 for 5m\n30m partition 2,4 for 2m\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ws", "8", "-hours", "1", "-seed", "2", "-faults", plan}); err != nil {
		t.Fatal(err)
	}
}

func TestBadFaultSpec(t *testing.T) {
	if err := run([]string{"-ws", "8", "-hours", "1", "-faults", "seed:zzz"}); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}
