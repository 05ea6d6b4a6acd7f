package controlplane_test

import (
	"testing"

	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stack"
	"github.com/nowproject/now/internal/xfs"
)

// newStack builds the served shape the tests drive on a seed-1 engine:
// ws workstations, an xFS of xfsNodes (2 spares, 2 managers; none when
// 0), the control plane and a remediator armed per remediate. With
// trickle, a 3-wide job of 40s work arrives every 30s so the cluster
// has placements to drain. The caller closes the engine.
func newStack(tb testing.TB, ws, xfsNodes int, trickle, remediate bool) *stack.Stack {
	tb.Helper()
	e := sim.NewEngine(1)
	reg := obs.NewRegistry()
	e.Observe(reg)
	gcfg := glunix.DefaultConfig(ws)
	gcfg.Seed = 1
	spec := stack.Spec{GLUnix: &gcfg, Control: true, Remediate: true}
	if xfsNodes > 0 {
		xcfg := xfs.DefaultConfig(xfsNodes)
		xcfg.SpareNodes = 2
		xcfg.Managers = 2
		spec.XFS = &xcfg
	}
	st, err := stack.Build(e, reg, spec)
	if err != nil {
		e.Close()
		tb.Fatalf("stack.Build: %v", err)
	}
	st.Remediator.SetEnabled(remediate)
	if trickle {
		e.Spawn("test/job-trickle", func(p *sim.Proc) {
			for id := 0; ; id++ {
				st.Cluster.Master.Submit(glunix.NewJob(id, 3, 40*sim.Second, 0))
				p.Sleep(30 * sim.Second)
			}
		})
	}
	return st
}

// buildStack is the shared test fixture: a small NOW with storage and
// a background job trickle, remediation armed per test.
func buildStack(t *testing.T, remediate bool) *stack.Stack {
	t.Helper()
	st := newStack(t, 12, 8, true, remediate)
	t.Cleanup(st.Engine.Close)
	return st
}

func runTo(t *testing.T, st *stack.Stack, at sim.Time) {
	t.Helper()
	if err := st.Engine.RunUntil(at); err != nil {
		t.Fatalf("RunUntil(%s): %v", at, err)
	}
}

// counter reads one metric's value from the registry snapshot.
func counter(t *testing.T, st *stack.Stack, name string) int64 {
	t.Helper()
	for _, m := range st.Registry.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

// TestDrainOrdering: a drain cordons first, then migrates — the node
// is never schedulable mid-evacuation, and ends drained with no guest.
func TestDrainOrdering(t *testing.T) {
	st := buildStack(t, false)
	// Let jobs land.
	runTo(t, st, 2*sim.Minute)

	// Pick a workstation hosting a job rank so the drain has work.
	target := -1
	for _, ws := range st.Cluster.Master.Census() {
		if ws.JobID >= 0 {
			target = ws.ID
			break
		}
	}
	if target < 0 {
		t.Fatal("no workstation hosting a job rank at 2m")
	}

	st.Engine.Spawn("test/drain", func(p *sim.Proc) {
		if err := st.CP.Drain(p, target); err != nil {
			t.Errorf("Drain(%d): %v", target, err)
		}
		// Ordering: by the time Drain returns the node must already be
		// cordoned (it was cordoned before the migration started).
		if !st.Cluster.Master.Cordoned(target) {
			t.Errorf("ws %d not cordoned after drain", target)
		}
	})
	runTo(t, st, 10*sim.Minute)

	ws, _ := st.Cluster.Master.WSInfo(target)
	if !ws.Drained {
		t.Fatalf("ws %d not drained", target)
	}
	if ws.JobID >= 0 {
		t.Fatalf("ws %d still hosts job %d rank %d after drain", target, ws.JobID, ws.Rank)
	}
	if got := counter(t, st, "cp.drains"); got != 1 {
		t.Fatalf("cp.drains = %d, want 1", got)
	}
}

// TestNoDoubleDrain: draining an already-cordoned node works once;
// draining again — or draining a drained node — is a no-op that never
// re-migrates or double-counts.
func TestNoDoubleDrain(t *testing.T) {
	st := buildStack(t, false)
	runTo(t, st, 2*sim.Minute)

	const target = 3
	if err := st.CP.Cordon(target); err != nil {
		t.Fatalf("Cordon: %v", err)
	}
	st.Engine.Spawn("test/drains", func(p *sim.Proc) {
		if err := st.CP.Drain(p, target); err != nil {
			t.Errorf("first Drain: %v", err)
		}
		if err := st.CP.Drain(p, target); err != nil {
			t.Errorf("second Drain: %v", err)
		}
	})
	runTo(t, st, 6*sim.Minute)

	if got := counter(t, st, "cp.drains"); got != 1 {
		t.Fatalf("cp.drains = %d, want 1 (second drain must be a no-op)", got)
	}
	if got := counter(t, st, "cp.cordons"); got != 1 {
		t.Fatalf("cp.cordons = %d, want 1 (drain must not re-cordon)", got)
	}
	// A second cordon of the same node is an error, not a re-cordon.
	if err := st.CP.Cordon(target); err == nil {
		t.Fatal("Cordon of an already-cordoned node did not error")
	}
	if got := counter(t, st, "cp.cordons"); got != 1 {
		t.Fatalf("cp.cordons = %d after rejected cordon, want 1", got)
	}
}

// TestCordonedGaugeIsCensus: cp.cordoned counts the master's cordon
// flags at read time, however they were set — by Cordon, by a drain,
// or on the master directly — and an uncordon of a drained node lowers
// it once.
func TestCordonedGaugeIsCensus(t *testing.T) {
	st := buildStack(t, false)
	runTo(t, st, 2*sim.Minute)
	for _, ws := range []int{2, 4} {
		if err := st.CP.Cordon(ws); err != nil {
			t.Fatalf("Cordon(%d): %v", ws, err)
		}
	}
	st.Engine.Spawn("test/drain", func(p *sim.Proc) {
		if err := st.CP.Drain(p, 6); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	runTo(t, st, 6*sim.Minute)
	if got := counter(t, st, "cp.cordoned"); got != 3 {
		t.Fatalf("cp.cordoned = %d after two cordons and a drain, want 3", got)
	}
	for _, ws := range []int{2, 6} {
		if err := st.CP.Uncordon(ws); err != nil {
			t.Fatalf("Uncordon(%d): %v", ws, err)
		}
	}
	if got := counter(t, st, "cp.cordoned"); got != 1 {
		t.Fatalf("cp.cordoned = %d after two uncordons, want 1", got)
	}
	st.Cluster.Master.Cordon(8)
	if got := counter(t, st, "cp.cordoned"); got != 2 {
		t.Fatalf("cp.cordoned = %d after a master-side cordon, want 2", got)
	}
}

// TestRemediatorCordonUncordon: the AV1-style crash window. A crashed
// workstation is cordoned after the down grace and uncordoned only
// after it has rejoined and stayed stable.
func TestRemediatorCordonUncordon(t *testing.T) {
	st := buildStack(t, true)

	// AV1's crash line, relocated: crash ws 5 at 2m for 5m.
	if err := st.CP.InjectLine("2m crash 5 for 5m"); err != nil {
		t.Fatalf("InjectLine: %v", err)
	}

	// Heartbeat census (5s × 3) plus 30s grace plus a 15s sweep: well
	// cordoned by 4m, still down.
	runTo(t, st, 4*sim.Minute)
	if !st.Cluster.Master.Cordoned(5) {
		t.Fatal("crashed ws 5 not cordoned by remediator")
	}
	if got := counter(t, st, "remediate.cordons"); got != 1 {
		t.Fatalf("remediate.cordons = %d, want 1", got)
	}

	// Recovery at 7m, rejoin on heartbeat, 60s stability, sweep: clear
	// by 10m.
	runTo(t, st, 10*sim.Minute)
	if st.Cluster.Master.Cordoned(5) {
		t.Fatal("recovered ws 5 still cordoned after stability window")
	}
	if got := counter(t, st, "remediate.uncordons"); got != 1 {
		t.Fatalf("remediate.uncordons = %d, want 1", got)
	}
}

// TestRemediatorRespectsOperatorCordon: the remediator never lifts a
// cordon it did not place.
func TestRemediatorRespectsOperatorCordon(t *testing.T) {
	st := buildStack(t, true)
	runTo(t, st, 1*sim.Minute)
	if err := st.CP.Cordon(7); err != nil {
		t.Fatalf("Cordon: %v", err)
	}
	// ws 7 is up and stable for far longer than StableFor.
	runTo(t, st, 10*sim.Minute)
	if !st.Cluster.Master.Cordoned(7) {
		t.Fatal("remediator lifted an operator cordon")
	}
}

// TestRemediatorRebuildBeforeRejoin: a failed stripe member triggers an
// automatic rebuild onto a spare — manager roles move off the dead node
// first, and the stripe is whole again (the rebuilt spare has joined)
// before anything else happens to the layout.
func TestRemediatorRebuildBeforeRejoin(t *testing.T) {
	st := buildStack(t, true)

	// AV1's disk failure: node 1 is both a stripe member and a manager
	// host, so remediation must order handoff before rebuild.
	if err := st.CP.InjectLine("2m diskfail 1"); err != nil {
		t.Fatalf("InjectLine: %v", err)
	}
	// The 2m sweep coincides with the fault; the rebuild may complete
	// within the same instant on a young stripe, so assert final state.
	runTo(t, st, 20*sim.Minute)
	if got := st.XFS.FailedStores(); len(got) != 0 {
		t.Fatalf("stripe still degraded after remediation: failed %v", got)
	}
	if got := counter(t, st, "remediate.rebuilds"); got != 1 {
		t.Fatalf("remediate.rebuilds = %d, want 1", got)
	}
	if mgrs := st.XFS.ManagersOn(1); len(mgrs) != 0 {
		t.Fatalf("managers %v still on dead node 1", mgrs)
	}
	if st.XFS.Stats().Handoffs == 0 {
		t.Fatal("no graceful manager handoff recorded (crash failover instead?)")
	}
	// The spare adopted the dead member's slot: node 1 is out of the
	// stripe, a former spare is in.
	inStripe := false
	for _, m := range st.XFS.StripeMembers() {
		if m == 1 {
			inStripe = true
		}
	}
	if inStripe {
		t.Fatal("dead node 1 still named in the stripe layout")
	}
	if got := len(st.Target.Spares()); got != 1 {
		t.Fatalf("spare pool = %d, want 1 (one consumed by the rebuild)", got)
	}
}

// TestRemediatorDisabledTakesNoAction: the same fault timeline with
// remediation off leaves the cordon and the degraded stripe alone.
func TestRemediatorDisabledTakesNoAction(t *testing.T) {
	st := buildStack(t, false)
	if err := st.CP.InjectLine("2m crash 5 for 5m"); err != nil {
		t.Fatalf("InjectLine: %v", err)
	}
	if err := st.CP.InjectLine("2m diskfail 1"); err != nil {
		t.Fatalf("InjectLine: %v", err)
	}
	runTo(t, st, 20*sim.Minute)
	if st.Cluster.Master.Cordoned(5) {
		t.Fatal("disabled remediator cordoned a node")
	}
	if got := st.XFS.FailedStores(); len(got) != 1 {
		t.Fatalf("disabled remediator changed the stripe: failed %v", got)
	}
	if got := counter(t, st, "remediate.actions"); got != 0 {
		t.Fatalf("remediate.actions = %d with remediation off", got)
	}
}

// TestStorageDrain: the operator form — hand off, remove, rebuild.
func TestStorageDrain(t *testing.T) {
	st := buildStack(t, false)
	runTo(t, st, 1*sim.Minute)

	before := st.XFS.Stats().Handoffs
	st.Engine.Spawn("test/drain-storage", func(p *sim.Proc) {
		if err := st.CP.DrainStorage(p, 0); err != nil {
			t.Errorf("DrainStorage(0): %v", err)
		}
	})
	runTo(t, st, 30*sim.Minute)

	if !st.XFS.NodeDown(0) {
		t.Fatal("xfs node 0 still up after storage drain")
	}
	if got := st.XFS.FailedStores(); len(got) != 0 {
		t.Fatalf("stripe degraded after storage drain: failed %v", got)
	}
	if mgrs := st.XFS.ManagersOn(0); len(mgrs) != 0 {
		t.Fatalf("managers %v still on drained node 0", mgrs)
	}
	if st.XFS.Stats().Handoffs == before {
		t.Fatal("storage drain did not hand off the manager")
	}
	if st.XFS.Stats().Failovers != 0 {
		t.Fatalf("storage drain caused %d crash failovers, want 0", st.XFS.Stats().Failovers)
	}
	if got := counter(t, st, "cp.drains.storage"); got != 1 {
		t.Fatalf("cp.drains.storage = %d, want 1", got)
	}
}

// TestInjectLineGrammar: the live seam accepts both the full plan
// grammar and the at-less immediate form, and rejects garbage.
func TestInjectLineGrammar(t *testing.T) {
	st := buildStack(t, false)
	runTo(t, st, 30*sim.Second)

	if err := st.CP.InjectLine("crash 5 for 30s"); err != nil {
		t.Fatalf("at-less line: %v", err)
	}
	if err := st.CP.InjectLine("10s crash 6 for 30s"); err != nil {
		t.Fatalf("timed line: %v", err)
	}
	if err := st.CP.InjectLine("frobnicate 5"); err == nil {
		t.Fatal("nonsense line accepted")
	}
	if err := st.CP.InjectLine(""); err == nil {
		t.Fatal("empty line accepted")
	}

	runTo(t, st, 45*sim.Second)
	if st.Cluster.Up(5) {
		t.Fatal("immediate crash 5 did not land")
	}
	if st.Cluster.Up(6) == false && st.Engine.Now() < 40*sim.Second {
		t.Fatal("timed crash 6 landed early")
	}
	if got := counter(t, st, "cp.faults.live"); got != 2 {
		t.Fatalf("cp.faults.live = %d, want 2", got)
	}
}
