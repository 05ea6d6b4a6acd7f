// Package obs is the deterministic, virtual-time observability layer:
// a metrics registry (counters, gauges, fixed-layout histograms) and a
// span tracer, shared by every NOW subsystem. It is the uniform way to
// observe a running simulation — the paper's argument is built on
// measured numbers (10 µs Active Message overheads, coscheduling skew,
// cooperative-cache hit rates), and this package is where those numbers
// come from in our reproduction.
//
// Two properties shape the design:
//
//   - Determinism. All times are *virtual* (the sim engine's clock, in
//     nanoseconds); histograms use fixed bucket layouts; exports are
//     stable-ordered. Two runs of the same seeded scenario therefore
//     emit byte-identical metrics JSON. Nothing in this package reads
//     the wall clock.
//
//   - A near-zero disabled path. A nil *Registry is the disabled state:
//     every constructor on it returns a nil handle, and every method on
//     a nil handle is an inlineable no-op. Instrumented hot paths guard
//     with a single pointer test and perform no map lookups and no
//     allocations per event, so the scheduler's ns-level wins survive.
//
// A tally lives in exactly one place: the subsystem's Stats if it has
// one, exported with CounterFunc/GaugeFunc, which read the live field
// on every read; otherwise an obs counter, created once at subsystem
// construction (preallocated label sets via CounterVec/GaugeVec) and
// bumped with a plain field increment. Sampled values (utilisations,
// queue depths) are GaugeFuncs too. See docs/OBSERVABILITY.md for the
// naming conventions and the instrumentation guide.
package obs

import (
	"fmt"
	"sort"
)

// Time is a point (or span) of virtual time in nanoseconds. It is the
// unit of sim.Time without the import: obs sits below internal/sim so
// the engine itself can be instrumented.
type Time = int64

// Counter is a monotonically increasing int64 metric. The zero handle
// (nil) is a no-op, which is how disabled instrumentation costs ~0.
type Counter struct {
	name string
	v    int64
	read func() int64 // CounterFunc: the subsystem's ledger; v is unused
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n (negative n is a caller bug; it is not checked on the hot
// path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value reports the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	if c.read != nil {
		return c.read()
	}
	return c.v
}

// Gauge is an instantaneous int64 metric: a level, a depth, a
// utilisation in parts-per-million. Dimensionless ratios are stored
// scaled (see Ratio) so that exports stay integer and byte-stable.
type Gauge struct {
	name string
	v    int64
	read func() int64 // GaugeFunc: the live level; v is unused
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add moves the level by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v += d
	}
}

// SetMax raises the gauge to v if v is larger — the high-water-mark
// pattern used for queue depths.
func (g *Gauge) SetMax(v int64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Value reports the current level (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	if g.read != nil {
		return g.read()
	}
	return g.v
}

// Ratio scales a dimensionless fraction to parts-per-million for gauge
// storage: integer, deterministic, precise enough for any report.
func Ratio(f float64) int64 { return int64(f*1e6 + 0.5) }

// CounterVec is a preallocated set of counters over a fixed label set —
// one counter per label, addressed by index. There is no per-event map
// lookup anywhere: the index is the caller's own dense id (a node id, a
// policy ordinal).
type CounterVec struct {
	cs []*Counter
}

// At returns the i'th counter (nil — a no-op — when the vec is nil or i
// is out of range).
func (v *CounterVec) At(i int) *Counter {
	if v == nil || i < 0 || i >= len(v.cs) {
		return nil
	}
	return v.cs[i]
}

// GaugeVec is the gauge analogue of CounterVec.
type GaugeVec struct {
	gs []*Gauge
}

// At returns the i'th gauge (nil when the vec is nil or i out of range).
func (v *GaugeVec) At(i int) *Gauge {
	if v == nil || i < 0 || i >= len(v.gs) {
		return nil
	}
	return v.gs[i]
}

// Registry holds a run's collectors. A nil *Registry is the disabled
// observability layer: all constructors return nil handles and all
// recording is a no-op. Like the engine it observes, a Registry is not
// safe for concurrent use from multiple OS threads; the simulation's
// serialisation (one runnable process at a time) is what makes plain
// increments sound.
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	names    map[string]bool
	clock    func() Time
	spans    []Span
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// SetClock installs the virtual-time source used to stamp spans. The
// engine's Observe method calls this; install exactly one clock.
func (r *Registry) SetClock(fn func() Time) {
	if r != nil {
		r.clock = fn
	}
}

// now reads the clock (0 before SetClock, so pre-wiring spans are still
// harmless).
func (r *Registry) now() Time {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

// register reserves a metric name, panicking on duplicates: two
// subsystems claiming one name is a wiring bug better caught at
// construction than merged silently at export.
func (r *Registry) register(name string) {
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names[name] = true
}

// Counter creates and registers a counter (nil on a nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.register(name)
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// Gauge creates and registers a gauge (nil on a nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.register(name)
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	return g
}

// CounterFunc registers a counter whose value is read(), called at
// every read (Value, Snapshot, CounterValue, Merged): the subsystem's
// own tally is the ledger, and the registry only names it. read must
// be a deterministic function of simulation state. The returned handle
// is read-only; Inc and Add on it have no visible effect. Nil on a nil
// registry.
func (r *Registry) CounterFunc(name string, read func() int64) *Counter {
	c := r.Counter(name)
	if c != nil {
		c.read = read
	}
	return c
}

// GaugeFunc is CounterFunc for gauges: a level read from simulation
// state at every read (a utilisation, a census, a tally exported as a
// gauge).
func (r *Registry) GaugeFunc(name string, read func() int64) *Gauge {
	g := r.Gauge(name)
	if g != nil {
		g.read = read
	}
	return g
}

// CounterVec creates one counter per label, named name{label}. Labels
// are fixed at construction — the preallocated-label-set rule.
func (r *Registry) CounterVec(name string, labels []string) *CounterVec {
	if r == nil {
		return nil
	}
	v := &CounterVec{cs: make([]*Counter, len(labels))}
	for i, l := range labels {
		v.cs[i] = r.Counter(name + "{" + l + "}")
	}
	return v
}

// GaugeVec creates one gauge per label, named name{label}.
func (r *Registry) GaugeVec(name string, labels []string) *GaugeVec {
	if r == nil {
		return nil
	}
	v := &GaugeVec{gs: make([]*Gauge, len(labels))}
	for i, l := range labels {
		v.gs[i] = r.Gauge(name + "{" + l + "}")
	}
	return v
}

// CounterValue looks a counter up by name at reporting time — the
// experiment harness's read path. Not for hot paths.
func (r *Registry) CounterValue(name string) (int64, bool) {
	if r == nil {
		return 0, false
	}
	for _, c := range r.counters {
		if c.name == name {
			return c.Value(), true
		}
	}
	return 0, false
}

// GaugeValue looks a gauge up by name at reporting time.
func (r *Registry) GaugeValue(name string) (int64, bool) {
	if r == nil {
		return 0, false
	}
	for _, g := range r.gauges {
		if g.name == name {
			return g.Value(), true
		}
	}
	return 0, false
}

// HistogramStats looks a histogram up by name and reports its
// observation count and sum — enough for means at reporting time.
func (r *Registry) HistogramStats(name string) (n, sum int64, ok bool) {
	if r == nil {
		return 0, 0, false
	}
	for _, h := range r.hists {
		if h.name == name {
			return h.n, h.sum, true
		}
	}
	return 0, 0, false
}

// MetricNames returns every registered metric name, sorted — the
// documentation and golden tests walk this.
func (r *Registry) MetricNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.names))
	for n := range r.names {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
