// Package stack assembles one NOW on one engine: GLUnix layered over
// xFS, with the fault pipeline and the control plane on top. Every
// runner that builds a cluster stack — the availability studies, the
// scenario runner, the federation's member clusters and `nowsim serve`
// — goes through Build, so two wiring rules live here and nowhere
// else:
//
//   - One fault pipeline. A single faults.XFSTarget and a single
//     faults.Injector serve both the fault plan and the control plane:
//     an obs registry panics on duplicate metric names, and live
//     rebuilds and plan rebuilds must draw hot spares from one pool.
//   - One owner of net.*. The GLUnix fabric claims the net.* names in
//     the stack registry when a cluster exists; otherwise the xFS
//     fabric does.
//
// Build constructs in one fixed order — xFS fleet, GLUnix cluster,
// fault target and injector, control plane, remediator — because
// construction order is event order on a shared engine, and event
// order is what the virtual-time goldens pin.
package stack

import (
	"errors"

	"github.com/nowproject/now/internal/controlplane"
	"github.com/nowproject/now/internal/faults"
	"github.com/nowproject/now/internal/glunix"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/xfs"
)

// Spec selects the pieces of a stack. Every field is optional.
type Spec struct {
	// GLUnix builds a workstation cluster. Its Obs field is replaced by
	// the stack registry.
	GLUnix *glunix.Config
	// XFS builds a storage fleet.
	XFS *xfs.Config
	// XFSRegistry, when set, receives the xFS metrics instead of the
	// stack registry.
	XFSRegistry *obs.Registry
	// Plan is scheduled on the injector. An empty plan builds no
	// injector unless Control needs one for live faults.
	Plan faults.Plan
	// Control builds the control plane; it needs GLUnix.
	Control bool
	// Remediate builds a started, disabled remediator; it needs Control.
	Remediate bool
}

// Stack is one built NOW. Nothing has run yet; pieces the Spec did
// not ask for are nil.
type Stack struct {
	Engine     *sim.Engine
	Registry   *obs.Registry
	Cluster    *glunix.Cluster
	XFS        *xfs.System
	Target     *faults.XFSTarget
	Injector   *faults.Injector
	CP         *controlplane.ControlPlane
	Remediator *controlplane.Remediator
}

// Build assembles spec on e, instrumenting into reg.
func Build(e *sim.Engine, reg *obs.Registry, spec Spec) (*Stack, error) {
	if spec.Remediate && !spec.Control {
		return nil, errors.New("stack: a remediator needs the control plane")
	}
	st := &Stack{Engine: e, Registry: reg}
	if spec.XFS != nil {
		sys, err := xfs.New(e, *spec.XFS)
		if err != nil {
			return nil, err
		}
		xreg := spec.XFSRegistry
		if xreg == nil {
			xreg = reg
		}
		sys.Instrument(xreg)
		if spec.GLUnix == nil {
			sys.Fabric().Instrument(reg)
		}
		st.XFS = sys
	}
	if spec.GLUnix != nil {
		gcfg := *spec.GLUnix
		gcfg.Obs = reg
		c, err := glunix.New(e, gcfg)
		if err != nil {
			return nil, err
		}
		st.Cluster = c
	}

	var tgts []faults.Target
	if st.Cluster != nil {
		tgts = append(tgts, faults.ClusterTarget{C: st.Cluster})
	}
	if st.XFS != nil {
		st.Target = faults.NewXFSTarget(st.XFS)
		tgts = append(tgts, st.Target)
	}
	if len(spec.Plan.Faults) > 0 || spec.Control {
		st.Injector = faults.NewInjector(e, faults.Combine(tgts...), spec.Plan, reg)
		st.Injector.Schedule()
	}

	if !spec.Control {
		return st, nil
	}
	cp, err := controlplane.New(controlplane.Config{
		Engine:    e,
		Cluster:   st.Cluster,
		XFS:       st.XFS,
		XFSTarget: st.Target,
		Injector:  st.Injector,
		Registry:  reg,
	})
	if err != nil {
		return nil, err
	}
	st.CP = cp
	if spec.Remediate {
		st.Remediator = controlplane.NewRemediator(cp, controlplane.DefaultRemediationPolicy())
		st.Remediator.Start()
	}
	return st, nil
}
