package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", DurationBuckets)
	cv := r.CounterVec("v", []string{"a", "b"})
	gv := r.GaugeVec("w", []string{"a"})
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	g.SetMax(9)
	h.Observe(100)
	cv.At(0).Inc()
	cv.At(99).Inc()
	gv.At(0).Set(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("nil handles recorded something")
	}
	id := r.StartSpan("s", 0)
	if id != 0 {
		t.Fatalf("nil registry span id = %d", id)
	}
	r.Annotate(id, "note")
	r.EndSpan(id)
	if r.Snapshot() != nil || r.Spans() != nil || r.MetricNames() != nil {
		t.Fatal("nil registry exported something")
	}
	read := func() int64 { t.Fatal("ledger read on nil registry"); return 0 }
	if r.CounterFunc("cf", read) != nil || r.GaugeFunc("gf", read) != nil {
		t.Fatal("nil registry returned a func-backed handle")
	}
	if v, ok := r.CounterValue("cf"); ok || v != 0 {
		t.Fatalf("nil registry CounterValue = %d, %v", v, ok)
	}
	if v, ok := r.GaugeValue("gf"); ok || v != 0 {
		t.Fatalf("nil registry GaugeValue = %d, %v", v, ok)
	}
}

func TestNilHandleRecordingAllocatesNothing(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.SetMax(2)
		h.Observe(42)
	})
	if allocs != 0 {
		t.Fatalf("disabled handles allocated %.1f allocs/op", allocs)
	}
}

func TestEnabledRecordingAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DepthBuckets)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.SetMax(7)
		h.Observe(9)
	})
	if allocs != 0 {
		t.Fatalf("enabled recording allocated %.1f allocs/op", allocs)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	zero := func() int64 { return 0 }
	for kind, dup := range map[string]func(r *Registry){
		"gauge":        func(r *Registry) { r.Gauge("dup") },
		"counter func": func(r *Registry) { r.CounterFunc("dup", zero) },
		"gauge func":   func(r *Registry) { r.GaugeFunc("dup", zero) },
	} {
		func() {
			r := NewRegistry()
			r.Counter("dup")
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate %s registration did not panic", kind)
				}
			}()
			dup(r)
		}()
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 5000, 7000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d metrics", len(snap))
	}
	m := snap[0]
	if m.Type != "histogram" || m.Value != 6 || m.Sum != 1+10+11+100+5000+7000 {
		t.Fatalf("bad histogram metric %+v", m)
	}
	want := []Bucket{{Le: 10, N: 2}, {Le: 100, N: 2}, {Le: 1000, N: 0}, {Le: -1, N: 2}}
	if len(m.Buckets) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(m.Buckets), len(want))
	}
	for i, b := range m.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
	if h.Mean() != m.Sum/6 {
		t.Fatalf("mean %d", h.Mean())
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("z.last").Add(3)
		r.Gauge("a.first").Set(1)
		r.Histogram("m.mid", DepthBuckets).Observe(5)
		r.CounterVec("vec", []string{"n0", "n1"}).At(1).Inc()
		r.GaugeFunc("f.func", func() int64 { return 4 })
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteMetricsJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteMetricsJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two identical registries exported different bytes")
	}
	snap := build().Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
}

func TestGaugeFuncReadsAtSnapshot(t *testing.T) {
	r := NewRegistry()
	level := int64(0)
	r.GaugeFunc("sampled", func() int64 { return level })
	level = 42
	snap := r.Snapshot()
	if snap[0].Value != 42 {
		t.Fatalf("gauge func not read at snapshot: %+v", snap[0])
	}
}

// TestFuncMetricsReadThrough: a func-backed metric has no stored copy —
// every read path (handle, lookup, snapshot) sees the ledger as it is
// now, with no Snapshot needed in between, and keeps its type.
func TestFuncMetricsReadThrough(t *testing.T) {
	r := NewRegistry()
	var ledger struct{ sent, depth int64 }
	c := r.CounterFunc("x.sent", func() int64 { return ledger.sent })
	g := r.GaugeFunc("x.depth", func() int64 { return ledger.depth })
	ledger.sent, ledger.depth = 7, 3
	if c.Value() != 7 || g.Value() != 3 {
		t.Fatalf("handles read %d, %d; want 7, 3", c.Value(), g.Value())
	}
	if v, ok := r.CounterValue("x.sent"); !ok || v != 7 {
		t.Fatalf("CounterValue = %d, %v", v, ok)
	}
	ledger.depth = 5
	if v, ok := r.GaugeValue("x.depth"); !ok || v != 5 {
		t.Fatalf("GaugeValue = %d, %v; want the live 5", v, ok)
	}
	want := []Metric{{Name: "x.depth", Type: "gauge", Value: 5}, {Name: "x.sent", Type: "counter", Value: 7}}
	if snap := r.Snapshot(); !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot = %+v, want %+v", snap, want)
	}
}

func TestSpans(t *testing.T) {
	r := NewRegistry()
	var now Time
	r.SetClock(func() Time { return now })
	now = 10
	root := r.StartSpan("migrate", 3)
	now = 20
	child := r.StartChild("transfer", 3, root)
	r.Annotate(child, "32 MB image")
	now = 30
	r.EndSpan(child)
	now = 40
	r.EndSpan(root)
	r.EndSpan(root) // idempotent
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[0].Name != "migrate" || spans[0].Start != 10 || spans[0].End != 40 || spans[0].Node != 3 {
		t.Fatalf("bad root %+v", spans[0])
	}
	if spans[1].Parent != root || spans[1].Start != 20 || spans[1].End != 30 {
		t.Fatalf("bad child %+v", spans[1])
	}
	if len(spans[1].Notes) != 1 || spans[1].Notes[0].T != 20 || spans[1].Notes[0].Text != "32 MB image" {
		t.Fatalf("bad notes %+v", spans[1].Notes)
	}
	var buf bytes.Buffer
	if err := r.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"now-trace/1"`) {
		t.Fatalf("trace header missing:\n%s", buf.String())
	}
}

func TestCSVExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Histogram("h", []int64{10}).Observe(3)
	var buf bytes.Buffer
	if err := r.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{"name,type,value,sum\n", "c,counter,7,0\n", "h,histogram,1,3\n", "h[10],bucket,1,0\n", "h[inf],bucket,0,0\n"} {
		if !strings.Contains(got, want) {
			t.Fatalf("CSV missing %q:\n%s", want, got)
		}
	}
}

func TestMarshalStable(t *testing.T) {
	b1, err := MarshalStable(map[string]int{"b": 2, "a": 1})
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := MarshalStable(map[string]int{"a": 1, "b": 2})
	if !bytes.Equal(b1, b2) {
		t.Fatal("map key order leaked into encoding")
	}
	if b1[len(b1)-1] != '\n' {
		t.Fatal("no trailing newline")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(0.5) != 500_000 {
		t.Fatalf("Ratio(0.5) = %d", Ratio(0.5))
	}
	if Ratio(0) != 0 {
		t.Fatalf("Ratio(0) = %d", Ratio(0))
	}
}
