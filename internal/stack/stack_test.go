package stack

import (
	"strings"
	"testing"

	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/xfs"
)

func newEngine(t *testing.T) (*sim.Engine, *obs.Registry) {
	t.Helper()
	e := sim.NewEngine(1)
	t.Cleanup(e.Close)
	reg := obs.NewRegistry()
	e.Observe(reg)
	return e, reg
}

// TestBuildWiring checks, for every Spec shape, which metric families
// the stack registers and which fabric feeds net.*.
func TestBuildWiring(t *testing.T) {
	// A fault far past the run: the plan is wired but never fires.
	plan := faults.Scripted("later", faults.Fault{At: sim.Hour, Kind: faults.Crash, Node: 1, For: sim.Minute})
	cases := []struct {
		name                     string
		ws, xfs                  bool
		plan, control, remediate bool
	}{
		{name: "ws", ws: true},
		{name: "xfs", xfs: true},
		{name: "ws+xfs", ws: true, xfs: true},
		{name: "xfs+plan", xfs: true, plan: true},
		{name: "ws+xfs+plan", ws: true, xfs: true, plan: true},
		{name: "ws+xfs+control", ws: true, xfs: true, control: true},
		{name: "ws+xfs+plan+control+remediate", ws: true, xfs: true, plan: true, control: true, remediate: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, reg := newEngine(t)
			var spec Spec
			if tc.ws {
				gcfg := glunix.DefaultConfig(4)
				spec.GLUnix = &gcfg
			}
			if tc.xfs {
				xcfg := xfs.DefaultConfig(6)
				xcfg.SpareNodes = 1
				spec.XFS = &xcfg
			}
			if tc.plan {
				spec.Plan = plan
			}
			spec.Control, spec.Remediate = tc.control, tc.remediate
			st, err := Build(e, reg, spec)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if st.XFS != nil {
				// Storage traffic, so the two fabrics' counts differ.
				e.Spawn("write", func(p *sim.Proc) {
					c := st.XFS.Client(0)
					if err := c.Write(p, 1, 0, make([]byte, spec.XFS.BlockBytes)); err != nil {
						p.Fail(err)
					}
					if err := c.Sync(p); err != nil {
						p.Fail(err)
					}
				})
			}
			if err := e.RunUntil(sim.Time(20 * sim.Second)); err != nil {
				t.Fatalf("run: %v", err)
			}

			families := map[string]bool{}
			values := map[string]int64{}
			for _, m := range reg.Snapshot() {
				families[m.Name[:strings.IndexByte(m.Name, '.')]] = true
				values[m.Name] = m.Value
			}
			for fam, want := range map[string]bool{
				"net":       true,
				"faults":    tc.plan || tc.control,
				"cp":        tc.control,
				"remediate": tc.remediate,
			} {
				if families[fam] != want {
					t.Errorf("%s.* registered = %v, want %v", fam, families[fam], want)
				}
			}

			var fab, other *netsim.Fabric
			switch {
			case st.Cluster != nil && st.XFS != nil:
				fab, other = st.Cluster.Fab, st.XFS.Fabric()
			case st.Cluster != nil:
				fab = st.Cluster.Fab
			default:
				fab = st.XFS.Fabric()
			}
			if got, want := values["net.offered"], fab.Stats().Offered; got != want || want == 0 {
				t.Errorf("net.offered = %d, want %d from the owning fabric", got, want)
			}
			if other != nil && other.Stats().Offered == fab.Stats().Offered {
				t.Error("both fabrics offered the same count: the owner check proves nothing")
			}
		})
	}
}

// TestOneSparePool: with one hot spare, a plan rebuild and a control
// plane storage drain draw from the same pool — the first consumes the
// spare and the second is refused instead of rebuilding.
func TestOneSparePool(t *testing.T) {
	e, reg := newEngine(t)
	gcfg := glunix.DefaultConfig(4)
	xcfg := xfs.DefaultConfig(6)
	xcfg.SpareNodes = 1
	st, err := Build(e, reg, Spec{
		GLUnix: &gcfg,
		XFS:    &xcfg,
		Plan: faults.Scripted("pool",
			faults.Fault{At: 10 * sim.Second, Kind: faults.DiskFail, Node: 1},
			faults.Fault{At: 20 * sim.Second, Kind: faults.Rebuild, Node: 1, Peer: -1}),
		Control: true,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := len(st.Target.Spares()); got != 1 {
		t.Fatalf("spare pool = %d before any rebuild, want 1", got)
	}
	if err := e.RunUntil(sim.Time(5 * sim.Minute)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if errs, _ := reg.CounterValue("faults.errors"); errs != 0 || len(st.XFS.FailedStores()) != 0 {
		t.Fatalf("plan rebuild did not heal the stripe: %d fault errors, failed %v", errs, st.XFS.FailedStores())
	}
	if got := st.Target.Spares(); len(got) != 0 {
		t.Fatalf("spare pool after the plan rebuild = %v, want empty", got)
	}

	drainErr := error(nil)
	e.Spawn("drain", func(p *sim.Proc) { drainErr = st.CP.DrainStorage(p, 2) })
	if err := e.RunUntil(sim.Time(10 * sim.Minute)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if drainErr == nil {
		t.Fatal("storage drain rebuilt with no spare left in the shared pool")
	}
}

// TestBuildRejectsImpossibleSpecs: a remediator needs the control
// plane, and the control plane needs a cluster.
func TestBuildRejectsImpossibleSpecs(t *testing.T) {
	xcfg := xfs.DefaultConfig(6)
	for name, spec := range map[string]Spec{
		"remediate without control": {XFS: &xcfg, Remediate: true},
		"control without cluster":   {XFS: &xcfg, Control: true},
	} {
		e, reg := newEngine(t)
		if _, err := Build(e, reg, spec); err == nil {
			t.Errorf("%s: Build accepted it", name)
		}
	}
}
