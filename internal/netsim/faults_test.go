package netsim

import (
	"testing"

	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/sim"
)

// TestPartitionDropsAndAccounts checks that packets crossing a
// partition boundary disappear and are counted as injected drops in
// both Stats and the obs counters, and that Heal restores delivery.
func TestPartitionDropsAndAccounts(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	reg := obs.NewRegistry()
	e.Observe(reg)
	f := newTestFabric(t, e, ATM155(4))
	f.Instrument(reg)
	delivered := 0
	f.SetDeliveryPort(1, 0, func(pkt *Packet) { delivered++ })
	f.SetDeliveryPort(3, 0, func(pkt *Packet) { delivered++ })

	f.Partition([]NodeID{2, 3})
	if !f.Partitioned(0, 3) || f.Partitioned(2, 3) || f.Partitioned(0, 1) {
		t.Fatal("partition membership wrong")
	}
	e.Spawn("tx", func(p *sim.Proc) {
		f.Send(p, &Packet{Src: 0, Dst: 3, Bytes: 100}) // crosses the cut
		f.Send(p, &Packet{Src: 0, Dst: 1, Bytes: 100}) // same side
		f.Send(p, &Packet{Src: 2, Dst: 3, Bytes: 100}) // same side
		p.Sleep(sim.Second)
		f.Heal()
		f.Send(p, &Packet{Src: 0, Dst: 3, Bytes: 100}) // healed
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 3 {
		t.Fatalf("delivered %d packets, want 3", delivered)
	}
	st := f.Stats()
	if st.Drops != 1 || st.InjectedDrops != 1 {
		t.Fatalf("stats = %+v, want 1 injected drop", st)
	}
	// Offered counts the dropped packet, Delivered does not: 4 packets
	// finished transmission, 3 reached a handler.
	if st.Offered != 4 || st.Delivered != 3 {
		t.Fatalf("stats = %+v, want offered 4 / delivered 3", st)
	}
	if st.Offered-st.Delivered != st.Drops {
		t.Fatalf("offered - delivered != drops: %+v", st)
	}
	if v, _ := reg.CounterValue("net.drops"); v != 1 {
		t.Fatalf("net.drops = %d, want 1", v)
	}
	if v, _ := reg.CounterValue("net.drops.injected"); v != 1 {
		t.Fatalf("net.drops.injected = %d, want 1", v)
	}
	if v, _ := reg.CounterValue("net.offered"); v != 4 {
		t.Fatalf("net.offered = %d, want 4", v)
	}
	if v, _ := reg.CounterValue("net.delivered"); v != 3 {
		t.Fatalf("net.delivered = %d, want 3", v)
	}
}

// TestPartitionFloodDoesNotDelayHealthyTraffic is the regression test
// for the output-link reservation bug: packets the partition swallows
// must never reserve the destination's receive link, so a flood aimed
// across the boundary leaves a healthy sender's latency to the same
// destination exactly at the uncontended figure.
func TestPartitionFloodDoesNotDelayHealthyTraffic(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	cfg := ATM155(8)
	f := newTestFabric(t, e, cfg)
	var arrived, sentAt sim.Time
	f.SetDeliveryPort(7, 0, func(pkt *Packet) {
		if pkt.Src == 5 {
			arrived = e.Now()
		}
	})

	f.Partition([]NodeID{4, 5, 6, 7}) // 0-3 in group 0, 4-7 in group 1
	// Flood: three cut-crossing senders each stream large packets at
	// node 7. Every one of them is dropped by the partition.
	for src := 0; src < 3; src++ {
		src := NodeID(src)
		e.Spawn("flood", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				f.Send(p, &Packet{Src: src, Dst: 7, Bytes: 8192})
			}
		})
	}
	// Healthy: node 5 sends one packet to node 7 (same side) while the
	// flood is in full flight.
	e.Spawn("healthy", func(p *sim.Proc) {
		p.Sleep(200 * sim.Microsecond)
		sentAt = p.Now()
		f.Send(p, &Packet{Src: 5, Dst: 7, Bytes: 1000})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if arrived == 0 {
		t.Fatal("healthy packet never arrived")
	}
	want := sentAt + f.SerializationTime(1000) + cfg.Latency
	if arrived != want {
		t.Fatalf("healthy latency disturbed by partition flood: arrived %v, want %v", arrived, want)
	}
	if st := f.Stats(); st.InjectedDrops != 60 || st.Delivered != 1 {
		t.Fatalf("stats = %+v, want 60 injected drops and 1 delivery", st)
	}
}

// TestLinkFaultFIFOUnderChurn is the property test for the injected-
// delay occupancy bug: with a link's delay fault set, cleared and
// re-set while traffic streams across it, deliveries on the (src, dst)
// pair must stay in send order — the injected delay is part of the
// output-link schedule, not a post-hoc add-on a later packet can
// undercut.
func TestLinkFaultFIFOUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		e := sim.NewEngine(seed)
		f := newTestFabric(t, e, ATM155(3))
		var order []int
		var times []sim.Time
		f.SetDeliveryPort(1, 0, func(pkt *Packet) {
			order = append(order, pkt.Payload.(int))
			times = append(times, e.Now())
		})
		const packets = 200
		e.Spawn("churn", func(p *sim.Proc) {
			for i := 0; i < 60; i++ {
				p.Sleep(sim.Duration(e.Rand().Intn(300)) * sim.Microsecond)
				if e.Rand().Intn(3) == 0 {
					f.ClearLinkFault(0, 1)
				} else {
					f.SetLinkFault(0, 1, 0, sim.Duration(e.Rand().Intn(2000))*sim.Microsecond)
				}
			}
		})
		e.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < packets; i++ {
				f.Send(p, &Packet{Src: 0, Dst: 1, Bytes: 64 + e.Rand().Intn(4096), Payload: i})
				if e.Rand().Intn(4) == 0 {
					p.Sleep(sim.Duration(e.Rand().Intn(500)) * sim.Microsecond)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(order) != packets {
			t.Fatalf("seed %d: delivered %d/%d (loss-free link)", seed, len(order), packets)
		}
		for i := 1; i < len(order); i++ {
			if order[i] != order[i-1]+1 {
				t.Fatalf("seed %d: FIFO violated: packet %d delivered after %d", seed, order[i], order[i-1])
			}
			if times[i] < times[i-1] {
				t.Fatalf("seed %d: delivery times regressed: %v after %v", seed, times[i], times[i-1])
			}
		}
	}
}

// TestLinkFaultLossAccounting injects a fully lossy link: every packet
// on it is an injected drop, other links are untouched, and
// ClearLinkFault restores the link.
func TestLinkFaultLossAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	f := newTestFabric(t, e, ATM155(3))
	delivered := map[NodeID]int{}
	f.SetDeliveryPort(1, 0, func(pkt *Packet) { delivered[1]++ })
	f.SetDeliveryPort(2, 0, func(pkt *Packet) { delivered[2]++ })

	f.SetLinkFault(0, 1, 1.0, 0) // loss=1: deterministic drop
	e.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			f.Send(p, &Packet{Src: 0, Dst: 1, Bytes: 64})
			f.Send(p, &Packet{Src: 0, Dst: 2, Bytes: 64})
		}
		p.Sleep(sim.Second)
		f.ClearLinkFault(0, 1)
		f.Send(p, &Packet{Src: 0, Dst: 1, Bytes: 64})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered[2] != 5 {
		t.Fatalf("healthy link delivered %d/5", delivered[2])
	}
	if delivered[1] != 1 {
		t.Fatalf("faulted link delivered %d, want only the post-clear packet", delivered[1])
	}
	if st := f.Stats(); st.InjectedDrops != 5 {
		t.Fatalf("InjectedDrops = %d, want 5", st.InjectedDrops)
	}
}

// TestLinkFaultDelayIsAdded checks the delay half of a link fault: the
// packet arrives exactly the injected delay later, and the fault is
// undirected.
func TestLinkFaultDelayIsAdded(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	f := newTestFabric(t, e, ATM155(2))
	var arrivals []sim.Time
	var sentAt sim.Time
	f.SetDeliveryPort(1, 0, func(pkt *Packet) { arrivals = append(arrivals, e.Now()) })
	e.Spawn("tx", func(p *sim.Proc) {
		f.Send(p, &Packet{Src: 0, Dst: 1, Bytes: 1000}) // healthy baseline
		p.Sleep(sim.Second)
		f.SetLinkFault(1, 0, 0, 5*sim.Millisecond) // set via (1,0): undirected
		sentAt = p.Now()
		f.Send(p, &Packet{Src: 0, Dst: 1, Bytes: 1000})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(arrivals))
	}
	// Same packet on the same idle link: delivery cost matches the
	// healthy baseline plus exactly the injected delay.
	want := sentAt + arrivals[0] + 5*sim.Millisecond
	if arrivals[1] != want {
		t.Fatalf("slowed packet at %v, want %v", arrivals[1], want)
	}
}
