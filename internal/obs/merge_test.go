package obs

import (
	"reflect"
	"testing"
)

func TestMergedCountersGaugesHists(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x.total").Add(3)
	b.Counter("x.total").Add(4)
	a.Counter("only.a").Add(7)

	a.Gauge("q.depth").Set(5)
	b.Gauge("q.depth").Set(6)
	a.Gauge("q.depth.max").Set(9)
	b.Gauge("q.depth.max").Set(12)
	a.Gauge("sim.time.now.ns").Set(100)
	b.Gauge("sim.time.now.ns").Set(80)

	ha := a.Histogram("lat.ns", DurationBuckets)
	hb := b.Histogram("lat.ns", DurationBuckets)
	ha.Observe(10)
	ha.Observe(2_000_000)
	hb.Observe(10)

	m := Merged(a, b)
	if v, _ := m.CounterValue("x.total"); v != 7 {
		t.Errorf("x.total = %d, want 7 (summed)", v)
	}
	if v, _ := m.CounterValue("only.a"); v != 7 {
		t.Errorf("only.a = %d, want 7 (identity merge)", v)
	}
	if v, _ := m.GaugeValue("q.depth"); v != 11 {
		t.Errorf("q.depth = %d, want 11 (summed)", v)
	}
	if v, _ := m.GaugeValue("q.depth.max"); v != 12 {
		t.Errorf("q.depth.max = %d, want 12 (max)", v)
	}
	if v, _ := m.GaugeValue("sim.time.now.ns"); v != 100 {
		t.Errorf("sim.time.now.ns = %d, want 100 (max)", v)
	}
	if n, sum, ok := m.HistogramStats("lat.ns"); !ok || n != 3 || sum != 2_000_020 {
		t.Errorf("lat.ns stats = (%d, %d, %v), want (3, 2000020, true)", n, sum, ok)
	}
}

func TestMergedOrderIndependentExport(t *testing.T) {
	build := func(vals [2]int64) [2]*Registry {
		var rs [2]*Registry
		for i := range rs {
			rs[i] = NewRegistry()
			rs[i].Counter("c").Add(vals[i])
			rs[i].Gauge("g.max").Set(vals[i])
		}
		return rs
	}
	rs := build([2]int64{1, 2})
	snapA := Merged(rs[0], rs[1]).Snapshot()
	rs = build([2]int64{1, 2})
	snapB := Merged(rs[1], rs[0]).Snapshot()
	if !reflect.DeepEqual(snapA, snapB) {
		t.Errorf("merge is source-order dependent:\n%v\n%v", snapA, snapB)
	}
}

func TestMergedSpans(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	var now Time
	a.SetClock(func() Time { return now })
	b.SetClock(func() Time { return now })

	now = 10
	ra := a.StartSpan("a-root", 0)
	now = 30
	ca := a.StartChild("a-child", 0, ra)
	a.EndSpan(ca)
	now = 20
	rb := b.StartSpan("b-root", 1)
	b.EndSpan(rb)
	now = 40
	a.EndSpan(ra)

	m := Merged(a, b)
	spans := m.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Interleaved by start time: a-root(10), b-root(20), a-child(30).
	wantNames := []string{"a-root", "b-root", "a-child"}
	for i, s := range spans {
		if s.Name != wantNames[i] {
			t.Errorf("span %d = %q, want %q", i, s.Name, wantNames[i])
		}
		if s.ID != SpanID(i+1) {
			t.Errorf("span %d id = %d, want %d", i, s.ID, i+1)
		}
	}
	// Parent of a-child must follow a-root to its new id (1).
	if spans[2].Parent != spans[0].ID {
		t.Errorf("a-child parent = %d, want %d", spans[2].Parent, spans[0].ID)
	}
	if spans[1].Parent != 0 {
		t.Errorf("b-root parent = %d, want 0", spans[1].Parent)
	}
}

func TestMergedHistogramLayoutMismatchPanics(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Histogram("h", []int64{1, 2})
	b.Histogram("h", []int64{1, 2, 3})
	defer func() {
		if recover() == nil {
			t.Error("mismatched layouts should panic")
		}
	}()
	Merged(a, b)
}

// TestMergedReadsFuncMetricsIntoStaticCopy: func-backed counters and
// gauges merge under the same rules as stored ones, read from their
// ledgers at merge time; the merged registry holds plain values that do
// not follow later ledger changes.
func TestMergedReadsFuncMetricsIntoStaticCopy(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	sentA, sentB := int64(3), int64(4)
	maxA, maxB := int64(9), int64(12)
	a.CounterFunc("x.sent", func() int64 { return sentA })
	b.CounterFunc("x.sent", func() int64 { return sentB })
	a.GaugeFunc("q.depth.max", func() int64 { return maxA })
	b.GaugeFunc("q.depth.max", func() int64 { return maxB })
	b.Counter("x.sent.static").Add(2)

	m := Merged(a, b)
	check := func(when string) {
		t.Helper()
		if v, _ := m.CounterValue("x.sent"); v != 7 {
			t.Errorf("%s: x.sent = %d, want 7 (summed)", when, v)
		}
		if v, _ := m.GaugeValue("q.depth.max"); v != 12 {
			t.Errorf("%s: q.depth.max = %d, want 12 (max)", when, v)
		}
		if v, _ := m.CounterValue("x.sent.static"); v != 2 {
			t.Errorf("%s: x.sent.static = %d, want 2", when, v)
		}
	}
	check("at merge")
	sentA, sentB, maxA, maxB = 100, 200, 300, 400
	check("after the ledgers moved")
	if v, _ := a.CounterValue("x.sent"); v != 100 {
		t.Errorf("source x.sent = %d, want the live 100", v)
	}
}
