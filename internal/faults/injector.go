package faults

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
)

// errNoSpare is surfaced by XFSTarget when a rebuild asks for an
// auto-picked spare and the pool is exhausted.
var errNoSpare = errors.New("faults: no unused hot spare left")

// Injector executes a Plan against a Target by scheduling each fault
// as an ordinary engine event — injection is part of the simulation's
// deterministic event order, not an outside actor. Every injected
// fault opens an obs span ("fault.<kind>", node = the faulted node)
// and bumps the faults.* counters:
//
//	faults.injected       faults applied to the target (reads Applied)
//	faults.injected.kind  same, as a vector by Kind
//	faults.skipped        faults no target handled (bad node id, ...)
//	faults.errors         handled faults that returned an error
//	faults.active         currently-open fault windows
//
// Windowed faults (Fault.For > 0) schedule their own undo — Recover,
// Heal or LinkClear — at At+For, and their span stays open for the
// whole window.
type Injector struct {
	eng  *sim.Engine
	tgt  Target
	plan Plan
	r    *obs.Registry

	byKind  *obs.CounterVec
	skipped *obs.Counter
	faulted *obs.Counter
	active  *obs.Gauge

	applied int // faults handled by the target (not skipped); the faults.injected ledger
}

// NewInjector builds an injector for plan against tgt. The registry
// may be nil (no metrics or spans; injection still happens).
func NewInjector(e *sim.Engine, tgt Target, plan Plan, r *obs.Registry) *Injector {
	labels := make([]string, NumKinds+1)
	for k := Kind(1); int(k) <= NumKinds; k++ {
		labels[k] = k.String()
	}
	labels[0] = "none"
	in := &Injector{
		eng:     e,
		tgt:     tgt,
		plan:    plan,
		r:       r,
		byKind:  r.CounterVec("faults.injected.kind", labels),
		skipped: r.Counter("faults.skipped"),
		faulted: r.Counter("faults.errors"),
		active:  r.Gauge("faults.active"),
	}
	r.CounterFunc("faults.injected", func() int64 { return int64(in.applied) })
	return in
}

// Applied reports how many faults the target has handled so far.
func (in *Injector) Applied() int { return in.applied }

// Schedule registers every fault of the plan with the engine. Call it
// once, before the run starts.
func (in *Injector) Schedule() {
	for _, f := range in.plan.Faults {
		f := f
		in.eng.At(f.At, func() { in.apply(f) })
	}
}

// Inject schedules one additional fault outside the plan — the live
// seam a control plane uses. A fault stamped in the past (or with a
// zero At, the natural value for "now") is applied at the current
// virtual time; one in the future is scheduled like a plan line.
func (in *Injector) Inject(f Fault) {
	if now := in.eng.Now(); f.At < now {
		f.At = now
	}
	in.eng.At(f.At, func() { in.apply(f) })
}

// account records the outcome of one injection attempt and manages the
// span: handled instantaneous faults close their span immediately,
// windowed ones keep it open for the undo to close. The bool result —
// not the span id, which is always 0 on a nil registry — tells apply
// whether to schedule the window's undo.
func (in *Injector) account(f Fault, handled bool) (bool, obs.SpanID) {
	if !handled {
		in.skipped.Inc()
		return false, 0
	}
	in.applied++
	in.byKind.At(int(f.Kind)).Inc()
	sp := in.r.StartSpan("fault."+f.Kind.String(), f.Node)
	if f.For > 0 && windowable(f.Kind) {
		in.active.Add(1)
		return true, sp
	}
	in.r.EndSpan(sp)
	return true, 0
}

// windowable reports whether a kind has an automatic undo (so "for"
// windows mean something). Other kinds ignore a stray For.
func windowable(k Kind) bool {
	return k == Crash || k == Partition || k == Link
}

// closeWindow ends a windowed fault's span when its undo fires.
func (in *Injector) closeWindow(sp obs.SpanID) {
	in.active.Add(-1)
	in.r.EndSpan(sp)
}

func (in *Injector) apply(f Fault) {
	switch f.Kind {
	case Crash:
		if ok, sp := in.account(f, in.tgt.CrashNode(f.Node)); ok && f.For > 0 {
			in.eng.After(f.For, func() {
				in.tgt.RecoverNode(f.Node)
				in.closeWindow(sp)
			})
		}
	case Recover:
		in.account(f, in.tgt.RecoverNode(f.Node))
	case Partition:
		if ok, sp := in.account(f, in.tgt.PartitionNodes(f.Set)); ok && f.For > 0 {
			in.eng.After(f.For, func() {
				in.tgt.Heal()
				in.closeWindow(sp)
			})
		}
	case Heal:
		in.account(f, in.tgt.Heal())
	case Link:
		if ok, sp := in.account(f, in.tgt.LinkFault(f.Node, f.Peer, f.Loss, f.Delay)); ok && f.For > 0 {
			in.eng.After(f.For, func() {
				in.tgt.LinkClear(f.Node, f.Peer)
				in.closeWindow(sp)
			})
		}
	case LinkClear:
		in.account(f, in.tgt.LinkClear(f.Node, f.Peer))
	case DiskFail:
		in.account(f, in.tgt.FailDisk(f.Node))
	case Rebuild:
		// Rebuild streams reconstruction I/O, so it runs on a transient
		// proc; the span covers the whole reconstruction.
		in.eng.Spawn(fmt.Sprintf("faults/rebuild@%s", f.At), func(p *sim.Proc) {
			sp := in.r.StartSpan("fault.rebuild", f.Node)
			handled, err := in.tgt.RebuildDisk(p, f.Node, f.Peer)
			if !handled {
				in.skipped.Inc()
				in.r.Annotate(sp, "skipped: no target")
				in.r.EndSpan(sp)
				return
			}
			in.applied++
			in.byKind.At(int(f.Kind)).Inc()
			if err != nil {
				in.faulted.Inc()
				in.r.Annotate(sp, "error: "+err.Error())
			}
			in.r.EndSpan(sp)
		})
	case MgrKill:
		in.eng.Spawn(fmt.Sprintf("faults/mgrkill@%s", f.At), func(p *sim.Proc) {
			in.account(f, in.tgt.KillManager(p, f.Node))
		})
	default:
		in.skipped.Inc()
	}
}
