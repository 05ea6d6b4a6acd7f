package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/nowproject/now/internal/experiments"
)

// runStdout runs the CLI with args and returns what it printed.
func runStdout(t *testing.T, args ...string) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	raw, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatal(runErr)
	}
	return raw
}

// decodeReports decodes the output of a -json run.
func decodeReports(t *testing.T, raw []byte) []experiments.JSONReport {
	t.Helper()
	var reports []experiments.JSONReport
	if err := json.Unmarshal(raw, &reports); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, raw)
	}
	return reports
}

func TestRunJSONOutput(t *testing.T) {
	reports := decodeReports(t, runStdout(t, "-json", "-quick", "-only", "T1,E5"))
	if len(reports) != 2 || reports[0].ID != "T1" || reports[1].ID != "E5" {
		t.Fatalf("reports = %+v", reports)
	}
	if len(reports[0].Rows) == 0 || len(reports[0].Headers) == 0 {
		t.Fatalf("T1 report empty: %+v", reports[0])
	}
}

// TestRunCLIMatchesGolden pins the CLI path itself: the bytes nowbench
// prints and exports for one study are the study's stored goldens,
// which internal/experiments checks for every row of the table.
func TestRunCLIMatchesGolden(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "sc1.json")
	raw := runStdout(t, "-json", "-quick", "-only", "SC1", "-metrics", mpath)
	mb, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	golden := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(raw, golden("sc1.report.json.golden")) {
		t.Errorf("nowbench -json -quick -only SC1 drifted from its golden:\n%s", raw)
	}
	if !bytes.Equal(mb, golden("sc1.metrics.golden")) {
		t.Error("nowbench -metrics export for SC1 drifted from its golden")
	}
}

func TestRunSubsetQuick(t *testing.T) {
	if err := run([]string{"-quick", "-only", "T1,T4,E5"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunAblationSelection: -only names ablations without -ablations,
// and the reports come out in table order, not -only order.
func TestRunAblationSelection(t *testing.T) {
	reports := decodeReports(t, runStdout(t, "-json", "-quick", "-only", "A4,T1"))
	if len(reports) != 2 || reports[0].ID != "T1" || reports[1].ID != "A4" {
		t.Fatalf("reports = %+v", reports)
	}
}

func TestRunUnknownFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunUnknownIDIsNoop(t *testing.T) {
	// Selecting a nonexistent id runs nothing and errors nowhere.
	if err := run([]string{"-only", "ZZ"}); err != nil {
		t.Fatal(err)
	}
}
