package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/nowproject/now/internal/obs"
)

// quickAvailabilityConfig mirrors nowbench -quick: small enough for CI,
// large enough that one failed store is a visible capacity fraction.
func quickAvailabilityConfig() AvailabilityConfig {
	cfg := DefaultAvailabilityConfig()
	cfg.Workstations = 8
	cfg.ReadStreams = 2
	return cfg
}

// checkGolden diffs a study's rendered report and its metrics export —
// encoded exactly as `nowbench -metrics` writes them — against
// testdata/<name>.report.golden and testdata/<name>.metrics.golden.
func checkGolden(t *testing.T, rep Report, name string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.String(); got != string(want) {
		t.Fatalf("%s report drifted from its golden:\n got:\n%s\nwant:\n%s", rep.ID, got, want)
	}

	collected := map[string][]obs.Metric{}
	for k, r := range rep.Obs {
		collected[rep.ID+"/"+k] = r.Snapshot()
	}
	got, err := obs.MarshalStable(struct {
		Format      string                  `json:"format"`
		Experiments map[string][]obs.Metric `json:"experiments"`
	}{Format: "now-metrics-set/1", Experiments: collected})
	if err != nil {
		t.Fatal(err)
	}
	want, err = os.ReadFile(filepath.Join("testdata", name+".metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s metrics export drifted from testdata/%s.metrics.golden", rep.ID, name)
	}
}

// TestFaultStudyGolden is the AV1 golden: one quick-scale run must
// reproduce the stored report and metrics export byte for byte.
func TestFaultStudyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("AV1 study runs minutes of virtual workload")
	}
	rep, _, err := FaultStudy(quickAvailabilityConfig())
	if err != nil {
		t.Fatalf("FaultStudy: %v", err)
	}
	checkGolden(t, rep, "av1")
}
