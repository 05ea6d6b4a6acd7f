package controlplane_test

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/nowproject/now/internal/controlplane"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/stack"
)

// startServed boots a full stack behind a free-running Server and an
// httptest HTTP front end — the `nowsim serve` + `nowctl` pipeline in
// one process. Run with -race: every engine touch must funnel through
// the drive goroutine.
func startServed(t *testing.T) (*controlplane.Client, *stack.Stack) {
	t.Helper()
	st := newStack(t, 10, 8, true, false)
	srv := controlplane.NewServer(st.CP, st.Remediator, controlplane.ServerConfig{Rate: 0, Quantum: 500 * sim.Millisecond})
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Stop()
		st.Engine.Close()
		if err := srv.Err(); err != nil {
			t.Errorf("server drive error: %v", err)
		}
	})
	return &controlplane.Client{Base: hs.URL, HTTP: hs.Client()}, st
}

// waitFor polls cond through the client until it holds or the wall
// deadline passes. The simulation free-runs underneath, so virtual
// time races ahead of these polls.
func waitFor(t *testing.T, what string, cond func() (bool, error)) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ok, err := cond()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServeRoundTrip is the end-to-end drill from the acceptance
// criteria: status → cordon → uncordon → drain → live fault inject →
// metrics/spans, all over HTTP against a live drive loop.
func TestServeRoundTrip(t *testing.T) {
	c, _ := startServed(t)

	st, err := c.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Workstations != 10 || st.XFSNodes != 8 {
		t.Fatalf("status = %+v, want 10 workstations / 8 xfs nodes", st)
	}

	// Cordon ws 4 and see it in the census; double-cordon is a 400.
	if err := c.Cordon(4); err != nil {
		t.Fatalf("Cordon: %v", err)
	}
	n, err := c.Node(4)
	if err != nil {
		t.Fatalf("Node: %v", err)
	}
	if !n.Cordoned {
		t.Fatal("ws 4 not cordoned after POST")
	}
	if err := c.Cordon(4); err == nil {
		t.Fatal("double cordon did not error")
	}
	if err := c.Uncordon(4); err != nil {
		t.Fatalf("Uncordon: %v", err)
	}

	// Drain ws 3 and poll until the evacuation lands.
	if err := c.Drain(3); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waitFor(t, "ws 3 drained", func() (bool, error) {
		n, err := c.Node(3)
		return err == nil && n.Drained && n.JobID < 0, err
	})

	// Live fault: crash ws 5 and watch the census notice. The crash is
	// windowless on purpose: the simulation free-runs between polls, so
	// a recovery window (however wide) can pass entirely between two
	// wall-clock observations; a persistent down state cannot be missed.
	if err := c.InjectFault("crash 5"); err != nil {
		t.Fatalf("InjectFault: %v", err)
	}
	waitFor(t, "ws 5 down in census", func() (bool, error) {
		n, err := c.Node(5)
		return err == nil && !n.Up, err
	})
	if err := c.InjectFault("frobnicate 1"); err == nil {
		t.Fatal("nonsense fault line accepted")
	}

	// Storage drain: xfs node 0 hosts manager 0 and stripe data.
	if err := c.DrainStorage(0); err != nil {
		t.Fatalf("DrainStorage: %v", err)
	}
	waitFor(t, "xfs node 0 removed and stripe whole", func() (bool, error) {
		sts, err := c.Storage()
		if err != nil {
			return false, err
		}
		whole := true
		for _, s := range sts {
			if s.Failed {
				whole = false
			}
		}
		return sts[0].Down && whole, nil
	})

	// Metrics stream: stable JSON containing the cp.* instruments.
	data, err := c.MetricsJSON()
	if err != nil {
		t.Fatalf("MetricsJSON: %v", err)
	}
	for _, want := range []string{"cp.cordons", "cp.drains", "cp.faults.live", "faults.injected"} {
		if !bytes.Contains(data, []byte(`"`+want+`"`)) {
			t.Fatalf("metrics JSON missing %q", want)
		}
	}

	// Span stream: the drain span must be there; incremental fetch
	// starts after what we have seen.
	spans, err := c.Spans(0)
	if err != nil {
		t.Fatalf("Spans: %v", err)
	}
	found := false
	last := 0
	for _, sp := range spans {
		if sp.Name == "cp.drain" && sp.Node == 3 {
			found = true
		}
		last = int(sp.ID)
	}
	if !found {
		t.Fatal("cp.drain span for ws 3 not streamed")
	}
	if _, err := c.Spans(obs.SpanID(last)); err != nil {
		t.Fatalf("incremental Spans: %v", err)
	}

	// Remediation toggle round-trips.
	if err := c.Remediate(true); err != nil {
		t.Fatalf("Remediate(on): %v", err)
	}
	if err := c.Remediate(false); err != nil {
		t.Fatalf("Remediate(off): %v", err)
	}

	// Virtual time advanced the whole while.
	st2, err := c.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st2.VirtualNs <= st.VirtualNs {
		t.Fatalf("virtual clock did not advance: %d → %d", st.VirtualNs, st2.VirtualNs)
	}
}

// TestServeThrottled drives a rate-limited server: a 2000× throttle
// still advances virtual time far faster than the wall clock but the
// drive loop takes the throttle path, commands interleaving with
// sleeps.
func TestServeThrottled(t *testing.T) {
	st := newStack(t, 6, 0, false, false)
	srv := controlplane.NewServer(st.CP, st.Remediator, controlplane.ServerConfig{Rate: 2000, Quantum: 200 * sim.Millisecond})
	srv.Start()
	defer func() {
		srv.Stop()
		st.Engine.Close()
	}()

	var t0, t1 sim.Time
	if err := srv.Do(func() { t0 = st.Engine.Now() }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := srv.Do(func() { t1 = st.Engine.Now() }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if t1 <= t0 {
		t.Fatal("throttled drive loop did not advance virtual time")
	}
	// 300ms of wall at 2000× is ~600s of virtual time; the throttle
	// must keep it within an order of magnitude (generous slack for a
	// loaded CI host — but free-running would blow far past this).
	if got := t1 - t0; got > sim.Time(2*sim.Hour) {
		t.Fatalf("throttle too loose: %s virtual in ~300ms wall", sim.Duration(got))
	}

	srv.Stop()
	if err := srv.Do(func() {}); err == nil {
		t.Fatal("Do after Stop did not error")
	}
}

// TestServerStopIdempotent: Stop twice, and Stop racing Do, are safe.
func TestServerStopIdempotent(t *testing.T) {
	st := newStack(t, 4, 0, false, false)
	defer st.Engine.Close()
	srv := controlplane.NewServer(st.CP, nil, controlplane.ServerConfig{})
	srv.Start()
	srv.Stop()
	srv.Stop()
	if err := srv.Err(); err != nil {
		t.Fatalf("Err after clean stop: %v", err)
	}
}
