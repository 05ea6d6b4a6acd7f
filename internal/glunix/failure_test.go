package glunix

import (
	"testing"

	"github.com/nowproject/now/internal/sim"
)

func TestCrashDuringMigrationRestartsJob(t *testing.T) {
	cfg := testConfig(5)
	cfg.ImageBytes = 32 << 20 // big image: migration takes ≈1.7s
	cfg.CheckpointInterval = 5 * sim.Second
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 2, 40*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	// User returns to node 1 at t=15s → migration to node 3 begins; the
	// SOURCE node crashes mid-transfer.
	e.At(15*sim.Second, func() { c.Daemons[1].SetUserActive(true) })
	e.At(15*sim.Second+500*sim.Millisecond, func() { c.Crash(1) })
	runFor(t, e, 20*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatalf("job never recovered; %s", c.Master.debugString())
	}
	if j.Restarts == 0 && c.Master.Stats().Migrations == 0 {
		t.Fatal("neither migration completed nor restart occurred")
	}
}

func TestCrashOfBuddyHoldingUserImage(t *testing.T) {
	// Node 1's user image is saved on its buddy (node 2, ring order).
	// The buddy crashes while the guest runs; when the user returns the
	// restore fails but the system must keep working (the guest still
	// migrates, the job still completes).
	cfg := testConfig(5)
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 1, 30*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	e.At(5*sim.Second, func() { c.Crash(2) })
	e.At(10*sim.Second, func() { c.Daemons[1].SetUserActive(true) })
	runFor(t, e, 10*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatalf("job not done; %s", c.Master.debugString())
	}
	st := c.Master.Stats()
	if st.ImageRestores != 0 {
		t.Fatalf("restore claimed success with a dead buddy: %+v", st)
	}
	if st.Evictions != 1 {
		t.Fatalf("eviction not handled: %+v", st)
	}
}

func TestSimultaneousCrashes(t *testing.T) {
	cfg := testConfig(8)
	cfg.CheckpointInterval = 5 * sim.Second
	e, c := buildCluster(t, cfg)
	j1 := NewJob(1, 2, 30*sim.Second, sim.Second)
	j2 := NewJob(2, 2, 30*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j1); c.Master.Submit(j2) })
	// Both jobs lose a node at once.
	e.At(12*sim.Second, func() { c.Crash(1); c.Crash(3) })
	runFor(t, e, 20*sim.Minute)
	defer e.Close()
	if !j1.Done() || !j2.Done() {
		t.Fatalf("jobs not recovered: j1=%v j2=%v; %s", j1.Done(), j2.Done(), c.Master.debugString())
	}
	if c.Master.Stats().NodesDown != 2 {
		t.Fatalf("nodes down = %d", c.Master.Stats().NodesDown)
	}
	if j1.Restarts == 0 || j2.Restarts == 0 {
		t.Fatalf("restarts: j1=%d j2=%d", j1.Restarts, j2.Restarts)
	}
}

func TestCrashedNodeNeverRecruitedAgain(t *testing.T) {
	cfg := testConfig(4)
	e, c := buildCluster(t, cfg)
	e.At(0, func() { c.Crash(2) })
	j := NewJob(1, 3, 10*sim.Second, sim.Second)
	e.At(30*sim.Second, func() { c.Master.Submit(j) })
	runFor(t, e, 5*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatalf("job not done on survivors; %s", c.Master.debugString())
	}
	for _, g := range j.procs {
		if g.ws == 2 {
			t.Fatal("gang member placed on the dead node")
		}
	}
}

func TestClusterSurvivesMajorityCrash(t *testing.T) {
	// 6 of 8 workstations die; a 2-rank job still completes on the rest.
	cfg := testConfig(8)
	cfg.CheckpointInterval = 5 * sim.Second
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 2, 20*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	e.At(8*sim.Second, func() {
		for ws := 1; ws <= 6; ws++ {
			c.Crash(ws)
		}
	})
	runFor(t, e, 30*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatalf("job did not finish on the two survivors; %s", c.Master.debugString())
	}
	if c.Master.Stats().NodesDown != 6 {
		t.Fatalf("nodes down = %d", c.Master.Stats().NodesDown)
	}
}

func TestCheckpointBoundsLostWork(t *testing.T) {
	cfg := testConfig(4)
	cfg.CheckpointInterval = 4 * sim.Second
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 1, 60*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	e.At(30*sim.Second, func() { c.Crash(1) })
	runFor(t, e, 20*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatalf("job not done; %s", c.Master.debugString())
	}
	// With checkpoints every 4s, the restart resumed from ≥20s of
	// progress: total response well under crash-time + full-rerun.
	if j.ckptDone < 20*sim.Second {
		t.Fatalf("checkpointed only %v before a crash at 30s", j.ckptDone)
	}
	if r := j.Response(); r > 2*sim.Minute {
		t.Fatalf("response %v suggests restart from zero", r)
	}
}

func TestEvictionLimitProtectsUser(t *testing.T) {
	cfg := testConfig(3)
	cfg.MaxEvictionsPerUserDay = 1
	e, c := buildCluster(t, cfg)
	// Job 1 recruits node 1; the user returns (eviction #1), leaves,
	// returns again. With the limit at 1 the machine must not be
	// recruited a second time that day.
	j1 := NewJob(1, 1, 20*sim.Second, sim.Second)
	j2 := NewJob(2, 1, 20*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j1) })
	e.At(5*sim.Second, func() { c.Daemons[1].SetUserActive(true) })
	e.At(30*sim.Second, func() { c.Daemons[1].SetUserActive(false) })
	// Occupy nodes 2 and 3 with another job, then submit one more: the
	// only candidate is node 1, which is over its delay budget.
	e.At(60*sim.Second, func() { c.Master.Submit(NewJob(3, 2, 10*sim.Minute, sim.Second)) })
	e.At(90*sim.Second, func() { c.Master.Submit(j2) })
	runFor(t, e, 10*sim.Minute)
	defer e.Close()
	if c.Master.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Master.Stats().Evictions)
	}
	if j2.Started != 0 {
		t.Fatalf("job 2 recruited node 1 despite the eviction limit (started %v)", j2.Started)
	}
}

func TestHotSwapDrainAndReattach(t *testing.T) {
	cfg := testConfig(4)
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 2, 40*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	// Drain node 1 mid-run (software upgrade): its guest migrates to an
	// idle machine and the job keeps going.
	e.At(10*sim.Second, func() {
		e.Spawn("op", func(p *sim.Proc) { c.Master.Drain(p, 1) })
	})
	runFor(t, e, 5*sim.Minute)
	if !j.Done() {
		t.Fatalf("job did not survive the drain; %s", c.Master.debugString())
	}
	if c.Master.Stats().Migrations != 1 {
		t.Fatalf("migrations = %d", c.Master.Stats().Migrations)
	}
	// While drained, the node must not be recruited.
	j2 := NewJob(2, 4, 5*sim.Second, sim.Second) // needs all 4 nodes
	e.At(e.Now()+sim.Second, func() { c.Master.Submit(j2) })
	runFor(t, e, e.Now()+2*sim.Minute)
	if j2.Started != 0 {
		t.Fatal("4-node job started while one node was drained")
	}
	// Uncordoning completes the upgrade; the job can now run.
	c.Master.Uncordon(1)
	runFor(t, e, e.Now()+5*sim.Minute)
	defer e.Close()
	if !j2.Done() {
		t.Fatalf("job 2 did not run after reattach; %s", c.Master.debugString())
	}
}
