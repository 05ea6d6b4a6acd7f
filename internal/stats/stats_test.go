package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.n != 8 || s.sum != 40 {
		t.Fatalf("n, sum = %d, %v", s.n, s.sum)
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 {
		t.Fatal("empty summary should be all zeros")
	}
}

func TestSummaryNegativeValues(t *testing.T) {
	var s Summary
	s.Add(-5)
	s.Add(5)
	if s.Mean() != 0 {
		t.Fatalf("mean = %v", s.Mean())
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("median = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Percentile(95); math.Abs(got-95.05) > 0.1 {
		t.Fatalf("p95 = %v", got)
	}
}

func TestSampleAddAfterPercentileResorts(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Add(20)
	_ = s.Median()
	s.Add(1)
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 after re-add = %v", got)
	}
}

func TestFractionBelow(t *testing.T) {
	var s Sample
	for i := 0; i < 95; i++ {
		s.Add(100) // small messages
	}
	for i := 0; i < 5; i++ {
		s.Add(8192) // data blocks
	}
	if got := s.FractionBelow(200); math.Abs(got-0.95) > 1e-9 {
		t.Fatalf("FractionBelow = %v", got)
	}
}

func TestRatioGuardsZero(t *testing.T) {
	if Ratio(10, 0) != 0 {
		t.Fatal("Ratio(_, 0) should be 0")
	}
	if Ratio(10, 4) != 2.5 {
		t.Fatal("Ratio broken")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Table 2", "Config", "Paper (µs)", "Measured (µs)")
	tbl.AddRow("Ethernet remote mem", "6900", "6903")
	tbl.AddRowf("ATM remote mem", 1050, 1051.5)
	out := tbl.String()
	if !strings.Contains(out, "Table 2") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "Ethernet remote mem") || !strings.Contains(out, "1052") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableRowShorterThanHeaders(t *testing.T) {
	tbl := NewTable("", "A", "B", "C")
	tbl.AddRow("x")
	out := tbl.String()
	if !strings.Contains(out, "x") {
		t.Fatalf("row lost: %s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		27:     "27",
		2.8:    "2.80",
		0.16:   "0.160",
		23340:  "23340",
		192.6:  "193",
		-4:     "-4",
		-0.125: "-0.125",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// Property: mean is always within [min, max] of the observations.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var s Summary
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			s.Add(v)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if s.n == 0 {
			return true
		}
		m := s.Mean()
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
