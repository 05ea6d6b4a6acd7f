// Package experiments regenerates every table and figure in the paper's
// evaluation, plus the quantitative claims made in prose ("E" rows). One
// function per artifact returns typed rows and a rendered paper-vs-
// measured table; the Studies table names every artifact by id, and
// cmd/nowbench is a loop over it.
//
// Two rules keep the studies honest. A study's scales live in its
// Studies row and nowhere else: its full configuration and its -quick
// one. And every row's -quick JSON report and metrics export is pinned
// by a stored golden under testdata/; a golden is regenerated only from
// the parent commit, and a change that alters one explains every
// changed byte.
//
// See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for the
// recorded outcomes.
package experiments

import (
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/stats"
)

// Report is one regenerated artifact.
type Report struct {
	// ID is the experiment id from DESIGN.md (T1, F2, E5, ...).
	ID string
	// Title names the paper artifact.
	Title string
	// Table is the rendered rows (paper value next to measured value
	// where the paper states one).
	Table *stats.Table
	// Notes records calibration or substitution remarks.
	Notes string
	// Obs holds the observability registries of the instrumented runs
	// behind this report, keyed by sub-run name (e.g. a policy or a
	// problem size). Experiments that instrument their runs pull the
	// table's measured values from these registries; cmd/nowbench
	// -metrics exports them. Nil for uninstrumented experiments.
	Obs map[string]*obs.Registry
	// Shards is the largest worker count a sharded experiment ran with
	// (0 for single-threaded experiments); nowbench -json emits it
	// alongside the rows.
	Shards int
}

// String renders the report.
func (r Report) String() string {
	s := "== " + r.ID + ": " + r.Title + " ==\n" + r.Table.String()
	if r.Notes != "" {
		s += "note: " + r.Notes + "\n"
	}
	return s
}

// JSONReport is the machine-readable form of one report: the element of
// the array `nowbench -json` prints.
type JSONReport struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   string     `json:"notes,omitempty"`
	// Shards is the largest worker count a sharded experiment (SC2) ran
	// with; omitted for single-threaded experiments.
	Shards int `json:"shards,omitempty"`
}

// JSON returns the report's machine-readable form.
func (r Report) JSON() JSONReport {
	return JSONReport{
		ID:      r.ID,
		Title:   r.Title,
		Headers: r.Table.Headers(),
		Rows:    r.Table.Rows(),
		Notes:   r.Notes,
		Shards:  r.Shards,
	}
}

// MetricsSet is the now-metrics-set/1 document `nowbench -metrics`
// writes: a snapshot of every instrumented report's registries, keyed
// "<id>/<sub-run>". Encode it with obs.MarshalStable.
type MetricsSet struct {
	Format      string                  `json:"format"`
	Experiments map[string][]obs.Metric `json:"experiments"`
}

// NewMetricsSet returns an empty set.
func NewMetricsSet() MetricsSet {
	return MetricsSet{Format: "now-metrics-set/1", Experiments: map[string][]obs.Metric{}}
}

// Add snapshots rep's registries into the set.
func (m MetricsSet) Add(rep Report) {
	for k, r := range rep.Obs {
		m.Experiments[rep.ID+"/"+k] = r.Snapshot()
	}
}
