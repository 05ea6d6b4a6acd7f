package netsim_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// TestShardedLossInvariant is the regression for the issue's concern
// that the offered − delivered = drops conservation law could leak at
// sharded partition edges — e.g. a cross-partition packet counted as
// offered on the source partition but dropped (or delivered) on the
// destination one, splitting one packet's fate across two ledgers.
//
// Audit conclusion, pinned here under seeded background loss: the
// fabric decides every packet's fate in accept() at the SOURCE
// partition, before any cross-shard handoff, so each per-partition
// ledger balances on its own — not just the cluster-wide sum — and the
// handoff itself is conservative (CrossSent == CrossRecv). The
// exported net.* counters read the same ledger.
func TestShardedLossInvariant(t *testing.T) {
	const (
		nodes  = 16
		parts  = 4
		rounds = 3
	)
	fcfg := netsim.Myrinet(nodes)
	fcfg.LossProb = 0.10
	se := sim.NewShardedEngine(sim.ShardedConfig{
		Parts: parts, Workers: parts, Seed: 23, Window: fcfg.Latency,
	})
	defer se.Close()
	pm := netsim.SplitEven(nodes, parts)
	sf, err := netsim.NewSharded(se, fcfg, pm)
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]*obs.Registry, parts)
	for p := 0; p < parts; p++ {
		regs[p] = obs.NewRegistry()
		sf.Part(p).Instrument(regs[p])
	}
	eps := make([]*am.Endpoint, nodes)
	for i := 0; i < nodes; i++ {
		p := pm.Part(netsim.NodeID(i))
		e := se.Engine(p)
		eps[i] = am.NewEndpoint(e, node.New(e, node.DefaultConfig(netsim.NodeID(i))), sf.Part(p), am.Config{HeaderBytes: 8, Window: 4})
		eps[i].Register(0x21, func(p *sim.Proc, m am.Msg) (any, int) {
			return m.Arg, 32
		})
	}
	for i := 0; i < nodes; i++ {
		i := i
		e := se.Engine(pm.Part(netsim.NodeID(i)))
		e.Spawn(fmt.Sprintf("rank-%d", i), func(pr *sim.Proc) {
			for r := 0; r < rounds; r++ {
				// Mostly cross-partition destinations: the handoff edge
				// is the path under test.
				dst := (i + nodes/2 + r*3) % nodes
				pr.Sleep(sim.Duration(e.Rand().Intn(5)) * sim.Microsecond)
				if _, err := eps[i].Call(pr, netsim.NodeID(dst), 0x21, r, 512); err != nil {
					pr.Fail(fmt.Errorf("rank %d round %d: %w", i, r, err))
				}
			}
		})
	}
	errc := make(chan error, 1)
	go func() { errc <- se.Run(sim.MaxTime) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("lossy sharded run deadlocked")
	}

	// Per-partition ledgers must each balance on their own.
	var total netsim.Stats
	for p := 0; p < parts; p++ {
		s := sf.Part(p).Stats()
		if s.Offered-s.Delivered != s.Drops {
			t.Errorf("partition %d: offered %d − delivered %d != drops %d",
				p, s.Offered, s.Delivered, s.Drops)
		}
		if s.InjectedDrops != 0 {
			t.Errorf("partition %d: %d injected drops with no faults armed", p, s.InjectedDrops)
		}
		total.Offered += s.Offered
		total.Delivered += s.Delivered
		total.Drops += s.Drops
		total.CrossSent += s.CrossSent
		total.CrossRecv += s.CrossRecv
	}
	agg := sf.Stats()
	if agg.Offered != total.Offered || agg.Delivered != total.Delivered || agg.Drops != total.Drops {
		t.Errorf("aggregate stats %+v disagree with per-partition sum %+v", agg, total)
	}
	if agg.Offered-agg.Delivered != agg.Drops {
		t.Errorf("cluster-wide: offered %d − delivered %d != drops %d", agg.Offered, agg.Delivered, agg.Drops)
	}
	if total.Drops == 0 {
		t.Fatal("no drops observed — LossProb churn this regression depends on did not happen")
	}
	if total.CrossSent == 0 {
		t.Fatal("no cross-partition traffic — the partition edge was not exercised")
	}
	if total.CrossSent != total.CrossRecv {
		t.Errorf("cross-partition handoff leaked packets: sent=%d recv=%d", total.CrossSent, total.CrossRecv)
	}

	// The exported net.* counters are derived from the same ledger; the
	// merged registry view must agree with the summed Stats on all nine.
	merged := obs.Merged(regs...)
	for name, want := range map[string]int64{
		"net.offered":         agg.Offered,
		"net.offered.bytes":   agg.OfferedBytes,
		"net.delivered":       agg.Delivered,
		"net.delivered.bytes": agg.DeliveredBytes,
		"net.drops":           agg.Drops,
		"net.drops.injected":  agg.InjectedDrops,
		"net.sends.self":      agg.SelfSends,
		"net.cross.sent":      agg.CrossSent,
		"net.cross.recv":      agg.CrossRecv,
	} {
		if got, ok := merged.CounterValue(name); !ok || got != want {
			t.Errorf("%s metric %d (exported %v) != stats %d", name, got, ok, want)
		}
	}
}
