package experiments

import (
	"testing"

	"github.com/nowproject/now/internal/sim"
)

// TestWideAreaCrossover pins WA1's headline claim: somewhere inside the
// 1–100 ms sweep, lease-warmed cross-cluster caching overtakes per-read
// re-fetch from home — and the measured crossover brackets the closed-
// form prediction.
func TestWideAreaCrossover(t *testing.T) {
	cfg := studyConfig[WideAreaConfig](t, "WA1", true)
	_, rows, crossNs, err := WideAreaStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("sweep too small: %d rows", len(rows))
	}
	// The transition must exist and be monotone: refetch wins the low-
	// latency prefix, caching wins the high-latency suffix.
	if rows[0].CachingWins {
		t.Errorf("caching already wins at %v; warmup over-fetch not priced", rows[0].Latency)
	}
	last := rows[len(rows)-1]
	if !last.CachingWins {
		t.Errorf("caching still loses at %v; crossover escaped the sweep", last.Latency)
	}
	var lo, hi sim.Duration // measured bracket around the crossover
	flipped := false
	for i, r := range rows {
		if r.CachingWins != (r.CachedMs < r.RefetchMs) {
			t.Fatalf("row %v: winner flag inconsistent", r.Latency)
		}
		if r.CachingWins && !flipped {
			flipped = true
			hi = r.Latency
			if i > 0 {
				lo = rows[i-1].Latency
			}
		}
		if flipped && !r.CachingWins {
			t.Errorf("non-monotone winner at %v: caching lost again past the crossover", r.Latency)
		}
		if r.CachingWins != r.PredictedWin {
			t.Errorf("at %v measured winner and closed-form prediction disagree", r.Latency)
		}
	}
	if !flipped {
		t.Fatal("no crossover inside the sweep")
	}
	cross := sim.Duration(crossNs)
	if cross <= lo || cross > hi {
		t.Errorf("closed-form crossover %v outside the measured bracket (%v, %v]", cross, lo, hi)
	}
}

// TestWideAreaDeterminism: the quick sweep twice must agree cell for
// cell — the whole study is one deterministic federation per cell.
func TestWideAreaDeterminism(t *testing.T) {
	cfg := studyConfig[WideAreaConfig](t, "WA1", true)
	cfg.Latencies = cfg.Latencies[:2]
	_, r1, _, err := WideAreaStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, r2, _, err := WideAreaStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("row %d diverged:\n%+v\n%+v", i, r1[i], r2[i])
		}
	}
}
