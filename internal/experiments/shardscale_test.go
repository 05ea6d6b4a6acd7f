package experiments

import (
	"encoding/json"
	"testing"

	"github.com/nowproject/now/internal/obs"
)

// snapshotJSON renders a registry snapshot to bytes for exact
// comparison.
func snapshotJSON(t *testing.T, r *obs.Registry) string {
	t.Helper()
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShardedTrafficDeterministicAcrossWorkers is the library-level form
// of the PR's acceptance criterion: the full sharded stack (engine,
// fabric, AM, collectives, merged metrics) must produce identical
// deterministic results and a byte-identical merged registry at 1, 2, 4
// and 8 workers.
func TestShardedTrafficDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (ShardedTrafficResult, string) {
		cfg := DefaultShardedTrafficConfig(64, workers, 7)
		cfg.Rounds, cfg.Barriers = 3, 2
		res, reg, err := ShardedTraffic(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Blank the wall-clock fields; everything else must match.
		res.Wall, res.EventsPerSec, res.Workers = 0, 0, 0
		return res, snapshotJSON(t, reg)
	}
	baseRes, baseSnap := run(1)
	if baseRes.CrossSent == 0 {
		t.Fatal("no cross-partition traffic; study exercises nothing")
	}
	if baseRes.Overflows != 0 || baseRes.Drops != 0 {
		t.Fatalf("lossless run saw overflows=%d drops=%d", baseRes.Overflows, baseRes.Drops)
	}
	for _, w := range []int{2, 4, 8} {
		res, snap := run(w)
		if res != baseRes {
			t.Errorf("workers=%d: results diverge:\n  %+v\n  %+v", w, res, baseRes)
		}
		if snap != baseSnap {
			t.Errorf("workers=%d: merged registry snapshot diverges", w)
		}
	}
}

// TestShardScaleQuick smoke-tests the SC2 sweep end to end.
func TestShardScaleQuick(t *testing.T) {
	rep, rows, err := ShardScale(studyConfig[ShardScaleConfig](t, "SC2", true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "SC2" || len(rows) != 4 {
		t.Fatalf("got %s with %d rows", rep.ID, len(rows))
	}
	// Each size block's deterministic columns must agree across workers.
	byNodes := map[int]ShardScaleRow{}
	for _, r := range rows {
		if r.Overflows != 0 {
			t.Errorf("n=%d w=%d: %d overflows", r.Nodes, r.Workers, r.Overflows)
		}
		prev, ok := byNodes[r.Nodes]
		if !ok {
			byNodes[r.Nodes] = r
			continue
		}
		if r.MakespanUs != prev.MakespanUs || r.Events != prev.Events ||
			r.CrossSent != prev.CrossSent || r.BarrierUs != prev.BarrierUs {
			t.Errorf("n=%d: deterministic columns differ between w=%d and w=%d",
				r.Nodes, prev.Workers, r.Workers)
		}
	}
}
