package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Metric is one exported metric: a counter or gauge value, or a
// histogram with its fixed buckets. The JSON field set is stable;
// exports sort by name, so two runs of a deterministic scenario produce
// byte-identical output.
type Metric struct {
	Name string `json:"name"`
	Type string `json:"type"` // "counter" | "gauge" | "histogram"
	// Value is the counter/gauge value; for histograms it is the
	// observation count.
	Value int64 `json:"value"`
	// Sum is the histogram observation sum (duration metrics: total
	// virtual ns).
	Sum int64 `json:"sum,omitempty"`
	// Max is the largest observation of a histogram (omitted while
	// empty). Quantile clamps its bucket-bound estimates to it.
	Max int64 `json:"max,omitempty"`
	// Buckets are cumulative-free per-bucket counts; Le is the bucket's
	// inclusive upper bound, with the final bucket's Le = -1 standing
	// for +Inf. Zero buckets are kept: the layout is part of the
	// contract.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one histogram bucket.
type Bucket struct {
	Le int64 `json:"le"` // inclusive upper bound; -1 = +Inf
	N  int64 `json:"n"`
}

// Quantile reports the q-th percentile (0 < q ≤ 100) of a histogram
// metric as the upper bound of the bucket holding that rank — the
// standard fixed-bucket estimate, deterministic because the layouts
// are — clamped to the largest value actually observed: a bucket bound
// is an estimate, Max is a fact, and an estimate above the true
// maximum (or MaxInt64 from the +Inf bucket) would fail p-quantile
// assertions no observation justifies. ok is false when the metric is
// not a histogram, has no observations, or q is out of range; scenario
// assertions surface that as "unknown" rather than pass/fail
// (docs/SCENARIOS.md).
func (m Metric) Quantile(q float64) (v int64, ok bool) {
	if m.Type != "histogram" || m.Value <= 0 || q <= 0 || q > 100 {
		return 0, false
	}
	// rank = ⌈q% of n⌉, so p100 is the last observation's bucket.
	rank := int64(math.Ceil(q / 100 * float64(m.Value)))
	var seen int64
	for _, b := range m.Buckets {
		seen += b.N
		if seen >= rank {
			if b.Le < 0 || b.Le > m.Max {
				return m.Max, true
			}
			return b.Le, true
		}
	}
	return m.Max, true
}

// Snapshot returns every metric sorted by name, reading func-backed
// metrics from their ledgers.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, c := range r.counters {
		out = append(out, Metric{Name: c.name, Type: "counter", Value: c.Value()})
	}
	for _, g := range r.gauges {
		out = append(out, Metric{Name: g.name, Type: "gauge", Value: g.Value()})
	}
	for _, h := range r.hists {
		m := Metric{Name: h.name, Type: "histogram", Value: h.n, Sum: h.sum,
			Max: h.Max(), Buckets: make([]Bucket, len(h.counts))}
		for i, n := range h.counts {
			le := int64(-1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			m.Buckets[i] = Bucket{Le: le, N: n}
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// metricsDoc is the exported JSON shape of a metrics file.
type metricsDoc struct {
	Format  string   `json:"format"`
	Metrics []Metric `json:"metrics"`
}

// traceDoc is the exported JSON shape of a trace file.
type traceDoc struct {
	Format string `json:"format"`
	Spans  []Span `json:"spans"`
}

// WriteMetricsJSON writes the registry's metrics as stable-ordered,
// indented JSON. Byte-identical across runs of the same deterministic
// scenario.
func (r *Registry) WriteMetricsJSON(w io.Writer) error {
	snap := r.Snapshot()
	if snap == nil {
		snap = []Metric{} // encode as [], not null
	}
	return WriteStable(w, metricsDoc{Format: "now-metrics/1", Metrics: snap})
}

// WriteTraceJSON writes the recorded spans as stable-ordered JSON.
func (r *Registry) WriteTraceJSON(w io.Writer) error {
	spans := r.Spans()
	if spans == nil {
		spans = []Span{}
	}
	return WriteStable(w, traceDoc{Format: "now-trace/1", Spans: spans})
}

// WriteMetricsCSV writes "name,type,value,sum" rows sorted by name —
// the spreadsheet-side view of the same snapshot. Histogram buckets are
// flattened to name[le] rows.
func (r *Registry) WriteMetricsCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("name,type,value,sum\n")
	for _, m := range r.Snapshot() {
		fmt.Fprintf(&b, "%s,%s,%d,%d\n", m.Name, m.Type, m.Value, m.Sum)
		for _, bk := range m.Buckets {
			le := "inf"
			if bk.Le >= 0 {
				le = fmt.Sprint(bk.Le)
			}
			fmt.Fprintf(&b, "%s[%s],bucket,%d,0\n", m.Name, le, bk.N)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
