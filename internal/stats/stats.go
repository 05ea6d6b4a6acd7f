// Package stats provides the small statistical toolkit the experiment
// harness uses: streaming summaries, percentiles, histograms, and
// fixed-width table rendering for paper-vs-measured output.
package stats

import (
	"math"
	"sort"
)

// Summary accumulates a stream of float64 observations and answers the
// usual summary questions. The zero value is ready to use.
type Summary struct {
	n   int64
	sum float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.n++
	s.sum += v
}

// Mean returns the arithmetic mean (0 for an empty summary).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Sample collects observations for exact percentile computation. The
// zero value is ready to use.
type Sample struct {
	vals   []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Percentile returns the p-th percentile (p in [0,100]) by linear
// interpolation between closest ranks. Empty samples yield 0.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := p / 100 * float64(len(s.vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// FractionBelow reports the fraction of observations strictly less than
// limit — e.g. "95% of NFS messages are under 200 bytes".
func (s *Sample) FractionBelow(limit float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	n := 0
	for _, v := range s.vals {
		if v < limit {
			n++
		}
	}
	return float64(n) / float64(len(s.vals))
}

// Ratio returns a/b, or 0 when b is 0 — a guard for rate computations in
// experiment reports.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
