package main

import (
	"fmt"
	"strings"
	"time"

	now "github.com/nowproject/now"
)

// cluster-drill is a generated .scn story run through now.RunScenario: a
// 32-workstation GLUnix NOW with diurnal users and gang jobs shares
// virtual time with a 20-node xFS (2 hot spares, 2 managers, 16-block
// client caches) under a 16-stream NFS-style op mix, while a seeded plan
// partitions, crashes, fails a disk and rebuilds it. An op is one op-mix
// operation. Writes with Sync sit beside reads, and the GLUnix, fault,
// scenario and always-on metrics layers all run.
//
// The op-mix streams use clients 0–15; the disk that fails is one of
// the storage-only stripe members 16–17. No manager is killed: a killed
// manager's node takes its client's stream down, and in-flight token
// calls fail, so the op mix would count failed ops.
const (
	drWorkstations = 32
	drXFSNodes     = 20 // 18 stripe members + 2 hot spares
	drStreams      = 16 // op-mix streams, on xFS clients 0..drStreams-1
	drHorizon      = 120 * time.Second
)

// drillHead is the scenario's name, seed, horizon and fleet.
func drillHead(seed int64, horizon string) string {
	return fmt.Sprintf("scenario cluster-drill\nseed %d\nhorizon %s\nfleet ws %d\nfleet xfs %d spares=2 managers=2 cache=16\n",
		seed, horizon, drWorkstations, drXFSNodes)
}

// drillScript generates the scenario for a seed. scale shortens the
// horizon and moves every event with it.
func drillScript(seed int64, scale float64) string {
	rng := newSplitMix(seed, 7)
	at := func(frac float64) string {
		return (time.Duration(frac * scale * float64(drHorizon))).Round(time.Millisecond).String()
	}
	// The fault plan: window starts and lengths as fractions of the
	// horizon, jittered by the seed.
	jitter := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.float() }
	ws := func() int { return 1 + rng.intn(drWorkstations-1) } // ws 0 runs the GLUnix master
	a := ws()
	b := 1 + (a+rng.intn(drWorkstations-2))%(drWorkstations-1)
	disk := drStreams + rng.intn(2) // a stripe member with no op-mix stream
	diskAt := jitter(0.55, 0.65)

	var sb strings.Builder
	sb.WriteString(drillHead(seed, at(1)))
	sb.WriteString("at 0s diurnal days=1\n")
	fmt.Fprintf(&sb, "at %s opmix %d meta=0.5 think=50ms files=8 blocks=16\n", at(0.01), drStreams)
	fmt.Fprintf(&sb, "at %s jobs 8 nodes=4 work=%s every=%s grain=2s\n", at(0.05), at(0.2), at(0.07))
	fmt.Fprintf(&sb, "at %s partition %d,%d for %s\n", at(jitter(0.15, 0.25)), a, b, at(jitter(0.1, 0.2)))
	fmt.Fprintf(&sb, "at %s crash %d for %s\n", at(jitter(0.3, 0.45)), ws(), at(jitter(0.15, 0.25)))
	fmt.Fprintf(&sb, "at %s diskfail %d\n", at(diskAt), disk)
	fmt.Fprintf(&sb, "at %s rebuild %d\n", at(diskAt+jitter(0.1, 0.2)), disk)
	sb.WriteString("expect faults.injected == 4 at end\n")
	sb.WriteString("expect scenario.opmix.ops > 0 at end\n")
	return sb.String()
}

func clusterDrill(rc repConfig, h *harness) (*outcome, error) {
	sp := h.tr.begin("RunScenario", h.setup)
	// The same fleet with no script and a 1 ms horizon: building the
	// stack is the set-up cost.
	fleet, err := now.ParseScenario(strings.NewReader(drillHead(rc.seed, "1ms")))
	if err != nil {
		return nil, fmt.Errorf("fleet scenario: %w", err)
	}
	if _, err := now.RunScenario(fleet, now.ScenarioOptions{}); err != nil {
		return nil, fmt.Errorf("fleet scenario: %w", err)
	}
	h.tr.end(sp, 0)
	h.ready()

	sp = h.tr.begin("RunScenario", h.run)
	s, err := now.ParseScenario(strings.NewReader(drillScript(rc.seed, rc.scale)))
	if err != nil {
		return nil, err
	}
	res, err := now.RunScenario(s, now.ScenarioOptions{})
	h.tr.end(sp, 0)
	if err != nil {
		return nil, err
	}
	if !res.Ok() {
		return nil, fmt.Errorf("scenario assertions failed:\n%s", res.Report())
	}

	snap := res.Registry.Snapshot()
	out := &outcome{ops: res.Ops, failed: res.OpErrors, virtEnd: valueOf(snap, "sim.time.now.ns"), layers: map[string]float64{}}
	var metrics strings.Builder
	if err := res.Registry.WriteMetricsJSON(&metrics); err != nil {
		return nil, err
	}
	out.text = []string{res.Report(), metrics.String()}
	sim := simTallyOf(snap)
	out.events = sim.events
	setSim(out.layers, sim, out.ops)

	cn, xn := res.ClusterNet, res.XFSNet
	cluster, err := checkFabric("cluster", cn.Offered, cn.Delivered, cn.Drops, cn.OfferedBytes)
	if err != nil {
		return nil, err
	}
	storage, err := checkFabric("xfs", xn.Offered, xn.Delivered, xn.Drops, xn.OfferedBytes)
	if err != nil {
		return nil, err
	}
	setNet(out.layers, cluster.plus(storage), out.ops)
	amNotExposed(out.layers)

	out.layers["xfs.miss_ratio"] = 1 - perOp(valueOf(snap, "xfs.hits.local"), valueOf(snap, "xfs.reads"))
	out.layers["xfs.storage_reads_per_op"] = perOp(valueOf(snap, "xfs.reads.storage"), out.ops)
	out.layers["xfs.cache_transfers_per_op"] = perOp(valueOf(snap, "xfs.transfers.cache"), out.ops)
	// The scenario runner does not instrument the RAID arrays.
	out.layers["swraid.degraded_reads"] = notMeasured
	out.layers["glunix.jobs_completed"] = float64(res.JobsCompleted)
	out.layers["faults.applied"] = float64(res.FaultsApplied)
	if m, ok := metricOf(snap, "scenario.opmix.latency.ns"); ok {
		for q, name := range map[float64]string{50: "scenario.opmix_virt_us.p50", 99: "scenario.opmix_virt_us.p99"} {
			if v, ok := m.Quantile(q); ok {
				out.layers[name] = float64(v) / 1e3
			}
		}
	}
	return out, nil
}
