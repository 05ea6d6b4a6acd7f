package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nowproject/now/internal/obs"
)

// rerunMetrics lists the rows whose -quick run must also reproduce
// itself in process, byte for byte, and the metric names each must
// export: the layers those studies exist to exercise.
var rerunMetrics = map[string][]string{
	"SC1": {"collective.barriers", "net.offered", "net.delivered"},
	"ST2": {"xfs.batch.tokens", "xfs.prefetch.issued", "xfs.batch.commits"},
	"AV2": {"remediate.rebuilds", "remediate.cordons", "cp.commands", "faults.injected"},
	"WA1": {"fed.lease.grants", "fed.cache.hits", "fed.fetch.remote", "wan.sent", "wan.bytes"},
	"SC3": {"collective.innet.ops", "collective.innet.combines", "net.topo.hops", "net.topo.queue.ns"},
}

// TestStudyGoldens runs every row of the study table at -quick scale
// and diffs its JSON report and its metrics export, encoded exactly as
// `nowbench -json -quick -metrics` writes them, against
// testdata/<id>.report.json.golden and testdata/<id>.metrics.golden.
// SC2's report carries wall-clock columns (events/s, speedup), so only
// its metrics export is pinned.
func TestStudyGoldens(t *testing.T) {
	t.Parallel()
	for _, s := range Studies {
		t.Run(s.ID, func(t *testing.T) {
			if testing.Short() && (s.ID == "AV1" || s.ID == "AV2") {
				t.Skip("availability studies run minutes of virtual workload")
			}
			t.Parallel()
			var report, metrics []byte
			if s.ID == "AV2" {
				rep, _ := quickAV2(t)
				report, metrics = encode(t, rep)
			} else {
				report, metrics = quickRun(t, s)
			}
			name := strings.ToLower(s.ID)
			if s.ID != "SC2" {
				checkGolden(t, name+".report.json.golden", report)
			}
			checkGolden(t, name+".metrics.golden", metrics)

			names, ok := rerunMetrics[s.ID]
			if !ok {
				return
			}
			report2, metrics2 := quickRun(t, s)
			if !bytes.Equal(report, report2) {
				t.Errorf("%s report JSON is not byte-deterministic", s.ID)
			}
			if !bytes.Equal(metrics, metrics2) {
				t.Errorf("%s metrics export is not byte-deterministic", s.ID)
			}
			for _, want := range names {
				if !bytes.Contains(metrics, []byte(`"`+want+`"`)) {
					t.Errorf("%s metrics missing %q", s.ID, want)
				}
			}
		})
	}
}

// quickRun runs s at -quick scale and encodes its report and metrics
// as `nowbench -json -quick -metrics` does for a one-study selection.
func quickRun(t *testing.T, s Study) (report, metrics []byte) {
	t.Helper()
	rep, err := s.Run(Options{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", s.ID, err)
	}
	return encode(t, rep)
}

// encode writes rep as `nowbench -json -quick -metrics` does.
func encode(t *testing.T, rep Report) (report, metrics []byte) {
	t.Helper()
	var err error
	if report, err = obs.MarshalStable([]JSONReport{rep.JSON()}); err != nil {
		t.Fatal(err)
	}
	set := NewMetricsSet()
	set.Add(rep)
	if metrics, err = obs.MarshalStable(set); err != nil {
		t.Fatal(err)
	}
	return report, metrics
}

// checkGolden fails t unless got matches testdata/name byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from testdata/%s:\n got:\n%.2000s\nwant:\n%.2000s", name, got, want)
	}
}

// TestStudyTable pins the table's shape: ids are unique, the ablations
// come last, and every stored golden belongs to a row, so deleting a
// row cannot leave its goldens silently unchecked.
func TestStudyTable(t *testing.T) {
	rows := map[string]bool{}
	ablations := false
	for _, s := range Studies {
		if rows[strings.ToLower(s.ID)] {
			t.Errorf("duplicate study id %s", s.ID)
		}
		rows[strings.ToLower(s.ID)] = true
		if ablations && !s.Ablation {
			t.Errorf("%s: a study listed after the ablations", s.ID)
		}
		ablations = ablations || s.Ablation
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		if id, _, _ := strings.Cut(filepath.Base(g), "."); !rows[id] {
			t.Errorf("%s pins no study in the table", g)
		}
	}
}

// studyConfig returns the configuration study id runs at the given
// scale, so a test exercises exactly what nowbench does.
func studyConfig[C any](t *testing.T, id string, quick bool) C {
	t.Helper()
	for _, s := range Studies {
		if s.ID != id {
			continue
		}
		cfg := s.Full
		if quick {
			cfg = s.Quick
		}
		c, ok := cfg.(C)
		if !ok {
			t.Fatalf("%s configuration is %T", id, cfg)
		}
		return c
	}
	t.Fatalf("no study %s", id)
	var zero C
	return zero
}
