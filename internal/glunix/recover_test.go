package glunix

import (
	"testing"

	"github.com/nowproject/now/internal/sim"
)

// TestCrashedNodeRejoinsAfterRecover is the census half of the paper's
// availability claim: a crashed workstation that reboots is re-admitted
// on its first heartbeat.
func TestCrashedNodeRejoinsAfterRecover(t *testing.T) {
	cfg := testConfig(4)
	e, c := buildCluster(t, cfg)
	defer e.Close()
	e.At(10*sim.Second, func() { c.Crash(2) })
	runFor(t, e, 30*sim.Second)
	if c.Master.ws[2].up {
		t.Fatal("master still lists the crashed node as up")
	}
	if c.Master.Stats().NodesDown != 1 {
		t.Fatalf("NodesDown = %d, want 1", c.Master.Stats().NodesDown)
	}
	e.At(60*sim.Second, func() { c.Recover(2) })
	runFor(t, e, 90*sim.Second)
	if !c.Master.ws[2].up {
		t.Fatal("recovered node did not rejoin the census")
	}
	if c.Master.Stats().Rejoins != 1 {
		t.Fatalf("Rejoins = %d, want 1", c.Master.Stats().Rejoins)
	}
}

// TestRecoveredNodeRecruitedAgain goes one step further: a gang that
// needs every workstation can only run if the rejoined node is
// recruitable again.
func TestRecoveredNodeRecruitedAgain(t *testing.T) {
	cfg := testConfig(3)
	e, c := buildCluster(t, cfg)
	defer e.Close()
	e.At(5*sim.Second, func() { c.Crash(2) })
	e.At(40*sim.Second, func() { c.Recover(2) })
	j := NewJob(1, 3, 10*sim.Second, sim.Second)
	e.At(60*sim.Second, func() { c.Master.Submit(j) })
	runFor(t, e, 10*sim.Minute)
	if !j.Done() {
		t.Fatalf("3-wide gang never ran on a 3-ws cluster after rejoin; %s",
			c.Master.debugString())
	}
}

// TestNeverRejoinPolicyKeepsNodeOut is the pre-recovery behaviour as an
// ablation: with RecoverPolicy NeverRejoin, a rebooted node's
// heartbeats are ignored and the census never re-admits it.
func TestNeverRejoinPolicyKeepsNodeOut(t *testing.T) {
	cfg := testConfig(4)
	cfg.Recover = NeverRejoin
	e, c := buildCluster(t, cfg)
	defer e.Close()
	e.At(10*sim.Second, func() { c.Crash(2) })
	e.At(60*sim.Second, func() { c.Recover(2) })
	runFor(t, e, 3*sim.Minute)
	if c.Master.ws[2].up {
		t.Fatal("NeverRejoin re-admitted a recovered node")
	}
	if c.Master.Stats().Rejoins != 0 {
		t.Fatalf("Rejoins = %d under NeverRejoin", c.Master.Stats().Rejoins)
	}
}

// TestFastRecoveryStillRestartsJob covers recovery inside the heartbeat
// deadline: the master never saw the node down, but the guest died with
// the crash, so its job must restart rather than hang.
func TestFastRecoveryStillRestartsJob(t *testing.T) {
	cfg := testConfig(4)
	e, c := buildCluster(t, cfg)
	defer e.Close()
	j := NewJob(1, 2, 40*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	var crashed int
	e.At(10*sim.Second, func() {
		if len(j.procs) == 0 {
			t.Fatal("job not placed by 10s")
		}
		crashed = j.procs[0].ws
		c.Crash(crashed)
		// Recover well inside the 3s detection deadline.
		e.After(sim.Second, func() { c.Recover(crashed) })
	})
	runFor(t, e, 10*sim.Minute)
	if !j.Done() {
		t.Fatalf("job hung after fast crash/recover of ws %d; %s",
			crashed, c.Master.debugString())
	}
	if c.Master.Stats().Restarts == 0 {
		t.Fatal("fast recovery masked the crash: no restart recorded")
	}
}

// TestRecoverIsNoopOnHealthyNode guards the API edge cases.
func TestRecoverIsNoopOnHealthyNode(t *testing.T) {
	cfg := testConfig(4)
	e, c := buildCluster(t, cfg)
	defer e.Close()
	e.At(10*sim.Second, func() {
		c.Recover(2)  // never crashed
		c.Recover(0)  // master
		c.Recover(99) // out of range
	})
	runFor(t, e, 30*sim.Second)
	if c.Master.Stats().Rejoins != 0 || c.Master.Stats().NodesDown != 0 {
		t.Fatalf("no-op recover changed census: rejoins=%d down=%d",
			c.Master.Stats().Rejoins, c.Master.Stats().NodesDown)
	}
	if !c.Master.ws[2].up {
		t.Fatal("healthy node dropped from census by no-op recover")
	}
}

// TestRecoverPolicyString pins the policy names used in reports.
func TestRecoverPolicyString(t *testing.T) {
	if RejoinOnHeartbeat.String() != "rejoin-on-heartbeat" ||
		NeverRejoin.String() != "never-rejoin" {
		t.Fatal("recover policy names wrong")
	}
	if RecoverPolicy(9).String() != "recover-policy(9)" {
		t.Fatal("unknown policy rendering wrong")
	}
}
