package glunix

import (
	"errors"
	"testing"

	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/trace"
)

// testConfig shrinks timings so unit tests run fast.
func testConfig(ws int) Config {
	cfg := DefaultConfig(ws)
	cfg.HeartbeatInterval = 1 * sim.Second
	cfg.IdleThreshold = 10 * sim.Second
	cfg.ImageBytes = 1 << 20     // 1 MB guest images
	cfg.UserImageBytes = 2 << 20 // 2 MB user images
	cfg.CheckpointInterval = 30 * sim.Second
	return cfg
}

func buildCluster(t *testing.T, cfg Config) (*sim.Engine, *Cluster) {
	t.Helper()
	e := sim.NewEngine(cfg.Seed)
	c, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, c
}

func runFor(t *testing.T, e *sim.Engine, d sim.Duration) {
	t.Helper()
	if err := e.RunUntil(d); err != nil && !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}
}

func TestJobRunsToCompletionOnIdleCluster(t *testing.T) {
	e, c := buildCluster(t, testConfig(4))
	j := NewJob(1, 4, 10*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	runFor(t, e, 2*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatalf("job not done; master: %s", c.Master.debugString())
	}
	// 10s of work per proc plus save-image and barrier costs: close to 10s.
	if r := j.Response(); r < 10*sim.Second || r > 20*sim.Second {
		t.Fatalf("response = %v, want ≈10s", r)
	}
	if c.Master.Stats().JobsCompleted != 1 {
		t.Fatalf("master stats: %+v", c.Master.Stats())
	}
}

func TestJobQueuesWhenClusterTooBusy(t *testing.T) {
	e, c := buildCluster(t, testConfig(4))
	j1 := NewJob(1, 4, 20*sim.Second, sim.Second)
	j2 := NewJob(2, 4, 10*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j1) })
	e.At(sim.Second, func() { c.Master.Submit(j2) })
	runFor(t, e, 5*sim.Minute)
	defer e.Close()
	if !j1.Done() || !j2.Done() {
		t.Fatalf("jobs not done: j1=%v j2=%v; %s", j1.Done(), j2.Done(), c.Master.debugString())
	}
	if j2.Started < j1.Finished {
		t.Fatalf("j2 started at %v before j1 finished at %v (no free nodes existed)",
			j2.Started, j1.Finished)
	}
}

func TestSmallJobsSharePartitions(t *testing.T) {
	e, c := buildCluster(t, testConfig(4))
	j1 := NewJob(1, 2, 20*sim.Second, sim.Second)
	j2 := NewJob(2, 2, 20*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j1); c.Master.Submit(j2) })
	runFor(t, e, 2*sim.Minute)
	defer e.Close()
	if !j1.Done() || !j2.Done() {
		t.Fatal("jobs not done")
	}
	// Both gangs of 2 fit on 4 nodes: they overlap rather than serialise.
	if j2.Started >= j1.Finished {
		t.Fatalf("2-node jobs serialised: j2 start %v, j1 finish %v", j2.Started, j1.Finished)
	}
}

func TestUserActivityBlocksRecruitment(t *testing.T) {
	cfg := testConfig(3)
	e, c := buildCluster(t, cfg)
	// Users active on nodes 2 and 3 from the start.
	e.At(0, func() {
		c.Daemons[2].SetUserActive(true)
		c.Daemons[3].SetUserActive(true)
	})
	j := NewJob(1, 2, 5*sim.Second, sim.Second)
	e.At(sim.Second, func() { c.Master.Submit(j) })
	runFor(t, e, sim.Minute)
	if j.Done() {
		t.Fatal("gang of 2 ran with only 1 idle machine")
	}
	// Users leave; after the idle threshold the machines are recruited.
	e.At(sim.Minute, func() {
		c.Daemons[2].SetUserActive(false)
		c.Daemons[3].SetUserActive(false)
	})
	runFor(t, e, 3*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatalf("job never ran after machines went idle; %s", c.Master.debugString())
	}
	if j.Started < sim.Minute+cfg.IdleThreshold {
		t.Fatalf("recruited at %v, before the idle threshold elapsed", j.Started)
	}
}

func TestUserReturnMigratesGuest(t *testing.T) {
	cfg := testConfig(4)
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 2, 30*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	// The job lands on nodes 1 and 2 (lowest idle). At t=10s the user of
	// node 1 returns; the guest must migrate to node 3 or 4.
	e.At(10*sim.Second, func() { c.Daemons[1].SetUserActive(true) })
	runFor(t, e, 5*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatalf("job not done; %s", c.Master.debugString())
	}
	st := c.Master.Stats()
	if st.Evictions != 1 || st.Migrations != 1 {
		t.Fatalf("evictions=%d migrations=%d, want 1/1", st.Evictions, st.Migrations)
	}
	for _, g := range j.procs {
		if g.ws == 1 {
			t.Fatal("a guest still sits on the user's machine")
		}
	}
}

func TestMemorySaveAndRestore(t *testing.T) {
	cfg := testConfig(3)
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 1, 20*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	e.At(5*sim.Second, func() { c.Daemons[1].SetUserActive(true) })
	runFor(t, e, 2*sim.Minute)
	defer e.Close()
	st := c.Master.Stats()
	if st.ImageSaves == 0 {
		t.Fatal("no memory image saved at recruitment")
	}
	if st.ImageRestores == 0 {
		t.Fatal("user's memory image not restored on return")
	}
	if st.UserDelays.N() == 0 {
		t.Fatal("no user-delay measurement")
	}
	// The paper's bound: restore of the image in under 4 seconds. With a
	// 2 MB image on ATM this is far under; just require sub-second here
	// and check the 64 MB figure in the experiment harness.
	if max := st.UserDelays.Percentile(100); max > 4 {
		t.Fatalf("user waited %.2fs for their machine", max)
	}
}

func TestSaveRestoreDisabled(t *testing.T) {
	cfg := testConfig(3)
	cfg.SaveRestore = false
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 1, 5*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	runFor(t, e, sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatal("job not done")
	}
	if c.Master.Stats().ImageSaves != 0 {
		t.Fatal("image saved despite SaveRestore=false")
	}
}

func TestRestartOnReturnPolicy(t *testing.T) {
	cfg := testConfig(4)
	cfg.Policy = RestartOnReturn
	cfg.CheckpointInterval = 5 * sim.Second
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 2, 30*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	e.At(15*sim.Second, func() { c.Daemons[1].SetUserActive(true) })
	runFor(t, e, 10*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatalf("job not done; %s", c.Master.debugString())
	}
	st := c.Master.Stats()
	if st.Restarts == 0 {
		t.Fatal("restart policy did not restart the job")
	}
	if st.Migrations != 0 {
		t.Fatal("restart policy should not migrate")
	}
}

func TestIgnoreUserPolicyDisturbs(t *testing.T) {
	cfg := testConfig(3)
	cfg.Policy = IgnoreUser
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 1, 20*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	e.At(5*sim.Second, func() { c.Daemons[1].SetUserActive(true) })
	runFor(t, e, 2*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatal("job not done")
	}
	st := c.Master.Stats()
	if st.UserDisturbed != 1 || st.Migrations != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNodeCrashRestartsJobFromCheckpoint(t *testing.T) {
	cfg := testConfig(6)
	cfg.CheckpointInterval = 5 * sim.Second
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 2, 40*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	e.At(20*sim.Second, func() { c.Crash(1) })
	runFor(t, e, 15*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatalf("job not recovered after crash; %s", c.Master.debugString())
	}
	st := c.Master.Stats()
	if st.NodesDown != 1 {
		t.Fatalf("nodes down = %d", st.NodesDown)
	}
	if j.Restarts == 0 {
		t.Fatal("job did not restart")
	}
	if j.ckptDone == 0 {
		t.Fatal("no checkpoint was taken before the crash")
	}
	// Restart resumed from checkpoint: total elapsed far less than
	// running the whole job twice plus detection time would imply if it
	// restarted from zero... primarily we check it finished and made
	// progress from a checkpoint.
	for _, g := range j.procs {
		if g.ws == 1 {
			t.Fatal("restarted proc placed on the dead node")
		}
	}
}

func TestCrashOfUnrelatedNodeDoesNotAffectJob(t *testing.T) {
	cfg := testConfig(5)
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 2, 20*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	e.At(5*sim.Second, func() { c.Crash(5) }) // job is on 1,2
	runFor(t, e, 3*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatal("job not done")
	}
	if j.Restarts != 0 {
		t.Fatal("unrelated crash restarted the job")
	}
}

func TestHeartbeatDetectionLatency(t *testing.T) {
	cfg := testConfig(3)
	e, c := buildCluster(t, cfg)
	e.At(10*sim.Second, func() { c.Crash(2) })
	runFor(t, e, sim.Minute)
	defer e.Close()
	if c.Master.Stats().NodesDown != 1 {
		t.Fatal("crash not detected")
	}
	if c.Master.ws[2].up {
		t.Fatal("dead node still marked up")
	}
	if c.Master.ws[1].up != true || c.Master.ws[3].up != true {
		t.Fatal("live nodes marked down")
	}
}

func TestStalledEvictionResumesWhenNodeFrees(t *testing.T) {
	cfg := testConfig(2)
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 2, 30*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	// User returns to node 1 while node 2 is also busy with the gang:
	// no idle target exists, the guest stalls.
	e.At(5*sim.Second, func() { c.Daemons[1].SetUserActive(true) })
	// Later the user leaves again; after the threshold the machine is
	// idle and the stalled guest resumes there.
	e.At(20*sim.Second, func() { c.Daemons[1].SetUserActive(false) })
	runFor(t, e, 10*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatalf("job never finished; %s", c.Master.debugString())
	}
	if c.Master.Stats().StalledEvicts == 0 {
		t.Fatal("expected a stalled eviction")
	}
}

func TestGangBarrierCouplesProgress(t *testing.T) {
	// With one gang member paused, the others must stall at the barrier.
	cfg := testConfig(4)
	e, c := buildCluster(t, cfg)
	j := NewJob(1, 2, 30*sim.Second, sim.Second)
	e.At(0, func() { c.Master.Submit(j) })
	var p0, p1 sim.Duration
	e.At(10*sim.Second, func() {
		j.procs[0].paused = true
	})
	e.At(14*sim.Second, func() {
		p0, p1 = j.procs[0].progress, j.procs[1].progress
		j.procs[0].unpause()
	})
	runFor(t, e, 5*sim.Minute)
	defer e.Close()
	if !j.Done() {
		t.Fatal("job not done")
	}
	// While rank 0 was paused, rank 1 can be at most one grain ahead.
	if p1 > p0+j.Grain {
		t.Fatalf("gang decoupled: p0=%v p1=%v", p0, p1)
	}
}

func TestRunMixedSmall(t *testing.T) {
	acfg := trace.DefaultActivityConfig(8, 1)
	activity := trace.GenerateActivity(acfg)
	jobs := []trace.ParallelJob{
		{ID: 0, Arrive: 10 * sim.Hour, Nodes: 4, Work: 2 * sim.Minute, CommGrain: 2 * sim.Second},
		{ID: 1, Arrive: 11 * sim.Hour, Nodes: 2, Work: 1 * sim.Minute, CommGrain: 2 * sim.Second},
	}
	cfg := testConfig(8)
	cfg.HeartbeatInterval = 30 * sim.Second
	e := sim.NewEngine(1)
	c, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunMixed(activity, jobs, 24*sim.Hour)
	e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted != 2 {
		t.Fatalf("completed %d/2 jobs; master %+v", res.JobsCompleted, res.Master)
	}
	if res.MeanResponse <= 0 {
		t.Fatal("no mean response")
	}
}

func TestSlowdownComputation(t *testing.T) {
	now := MixedResult{Responses: map[int]sim.Duration{1: 110, 2: 220}}
	ded := MixedResult{Responses: map[int]sim.Duration{1: 100, 2: 200}}
	if s := Slowdown(now, ded); s < 1.09 || s > 1.11 {
		t.Fatalf("slowdown = %v, want 1.1", s)
	}
}

func TestPolicyAndConfigValidation(t *testing.T) {
	if MigrateOnReturn.String() != "migrate-on-return" || RecruitPolicy(9).String() == "" {
		t.Fatal("policy names wrong")
	}
	e := sim.NewEngine(1)
	defer e.Close()
	if _, err := New(e, Config{}); err == nil {
		t.Fatal("zero workstations accepted")
	}
}
