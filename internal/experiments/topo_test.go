package experiments

import (
	"testing"
)

// TestTopologyStudyShape runs the quick SC3 sweep and checks the grid:
// one row per (topology, size), every phase measured, predictions
// present.
func TestTopologyStudyShape(t *testing.T) {
	cfg := studyConfig[TopoStudyConfig](t, "SC3", true)
	rep, rows, err := TopologyStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(topologies) * len(cfg.Sizes); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.BarrierTreeUs <= 0 || r.BarrierInNetUs <= 0 || r.BcastTreeUs <= 0 ||
			r.BcastInNetUs <= 0 || r.ReduceTreeUs <= 0 || r.ReduceInNetUs <= 0 {
			t.Fatalf("%s n=%d: unmeasured phase in %+v", r.Topo, r.Nodes, r)
		}
		if r.BarrierPredUs <= 0 || r.BarrierInNetPred <= 0 {
			t.Fatalf("%s n=%d: missing prediction in %+v", r.Topo, r.Nodes, r)
		}
	}
	if len(rep.Obs) != len(rows) {
		t.Fatalf("%d registries for %d rows", len(rep.Obs), len(rows))
	}
}

// TestInNetBarrierBeatsSoftwareTreeAt1024 is the SC3 acceptance gate:
// at 1,024 ranks the switch-combined barrier must finish faster than
// the software k-ary tree on every topology — the in-network plane
// pays host overhead once per rank instead of once per tree level.
func TestInNetBarrierBeatsSoftwareTreeAt1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1,024-rank sweep")
	}
	_, rows, err := TopologyStudy(TopoStudyConfig{Sizes: []int{1024}, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BarrierInNetUs >= r.BarrierTreeUs {
			t.Errorf("%s n=%d: in-network barrier %.1fµs not faster than software tree %.1fµs",
				r.Topo, r.Nodes, r.BarrierInNetUs, r.BarrierTreeUs)
		}
	}
}
