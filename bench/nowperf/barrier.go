package main

import (
	"errors"
	"fmt"

	now "github.com/nowproject/now"
)

// The barrier workloads run 1,024 ranks on a k=8 fat-tree Myrinet, each
// rank computing for a seeded 0–20 µs and then entering a cluster-wide
// barrier, closed-loop. barrier-tree-1024 uses the 4-ary software tree
// over Active Messages; its host cost is almost all engine dispatch,
// proc switches and handler spawns for tiny AM handlers.
// barrier-innet-1024 combines in the switches instead and never touches
// the AM request path, so an AM-layer change should leave it alone.
const (
	brRanks       = 1024
	brFatTreeK    = 8
	brArity       = 4
	brMaxCompute  = 20 * now.Microsecond
	brTreeOps     = 40
	brInNetOps    = 600
	brSampleEvery = 128 // ranks whose per-op spans the traced rep records
)

func barrierTree(rc repConfig, h *harness) (*outcome, error) {
	return barrierRun(rc, h, false, rc.scaled(brTreeOps))
}

func barrierInNet(rc repConfig, h *harness) (*outcome, error) {
	return barrierRun(rc, h, true, rc.scaled(brInNetOps))
}

func barrierRun(rc repConfig, h *harness, innet bool, ops int) (*outcome, error) {
	e := now.NewEngine(rc.seed)
	defer e.Close()
	reg := now.NewRegistry()
	e.Observe(reg)
	fcfg := now.Myrinet(brRanks)
	topo, err := now.NewFatTree(brRanks, brFatTreeK, 1)
	if err != nil {
		return nil, err
	}
	fcfg.Topo = topo
	fab, err := now.NewFabric(e, fcfg)
	if err != nil {
		return nil, err
	}
	eps := make([]*now.AMEndpoint, brRanks)
	for i := range eps {
		eps[i] = now.NewAMEndpoint(e, now.NewNode(e, now.DefaultNodeConfig(now.NodeID(i))), fab, now.DefaultAMConfig())
	}
	comm, err := now.NewComm(e, eps, now.CollectiveConfig{Arity: brArity})
	if err != nil {
		return nil, err
	}
	barrier, name := comm.Barrier, "Comm.Barrier"
	if innet {
		in, err := now.NewInNet(comm, now.InNetConfig{})
		if err != nil {
			return nil, err
		}
		barrier, name = in.Barrier, "InNet.Barrier"
	}

	// lastIn[i] / lastOut[i]: when the last rank entered / left barrier i.
	// The op's latency is lastOut - lastIn: from the final arrival to the
	// final release, compute skew excluded.
	lastIn := make([]now.Time, ops)
	lastOut := make([]now.Time, ops)
	var procErr error
	done := now.NewWaitGroup(e, "ranks")
	done.Add(brRanks)
	for r := 0; r < brRanks; r++ {
		rng := newSplitMix(rc.seed, uint64(r))
		e.Spawn("nowperf/rank", func(p *now.Proc) {
			defer done.Done()
			for i := 0; i < ops; i++ {
				p.Sleep(now.Duration(rng.intn(int(brMaxCompute))))
				t0 := p.Now()
				lastIn[i] = max(lastIn[i], t0)
				var sp spanID
				if r%brSampleEvery == 0 {
					sp = h.tr.op(name, h.run, int64(i), r, int64(t0))
				}
				if err := barrier(p, r); err != nil {
					if procErr == nil {
						procErr = fmt.Errorf("rank %d barrier %d: %w", r, i, err)
					}
					return
				}
				h.tr.end(sp, int64(p.Now()))
				lastOut[i] = max(lastOut[i], p.Now())
			}
		})
	}
	e.Spawn("nowperf/monitor", func(p *now.Proc) {
		done.Wait(p)
		// Stop at completion: draining cancelled AM timers would only
		// advance the clock past the work.
		e.Stop()
	})

	atReady := simTallyOf(reg.Snapshot())
	h.ready()
	if err := e.Run(); err != nil && !errors.Is(err, now.ErrStopped) {
		return nil, err
	}
	if procErr != nil {
		return nil, procErr
	}

	out := &outcome{ops: int64(ops), virtEnd: int64(e.Now()), layers: map[string]float64{}}
	for i := range lastOut {
		out.lat = append(out.lat, int64(lastOut[i]-lastIn[i]))
	}
	sim := simTallyOf(reg.Snapshot()).minus(atReady)
	out.events = sim.events
	setSim(out.layers, sim, out.ops)

	fst := fab.Stats()
	net, err := checkFabric("myrinet", fst.Offered, fst.Delivered, fst.Drops, fst.OfferedBytes)
	if err != nil {
		return nil, err
	}
	setNet(out.layers, net, out.ops)

	var sent, handled, retries, overflows int64
	for _, ep := range eps {
		s := ep.Stats()
		sent += s.Sent
		handled += s.Handled
		retries += s.Retries
		overflows += s.Overflows
	}
	out.layers["am.requests_per_op"] = perOp(sent, out.ops)
	out.layers["am.handlers_per_op"] = perOp(handled, out.ops)
	out.layers["am.retries_per_op"] = perOp(retries, out.ops)
	out.layers["am.overflows"] = float64(overflows)
	out.layers["collective.barrier_virt_us.p50"] = quantileUs(out.lat, 0.50)
	out.layers["collective.barrier_virt_us.p99"] = quantileUs(out.lat, 0.99)
	return out, nil
}
