package netsim

import (
	"testing"

	"github.com/nowproject/now/internal/sim"
)

// deliveryFabric builds a 64-node Myrinet fabric over topo (nil: the
// flat crossbar) whose node 63 frees every packet it receives, and the
// source and destination of a send that crosses the whole fabric (on
// the fat-tree, up to the root switch and back down).
func deliveryFabric(tb testing.TB, e *sim.Engine, topo Topology) (f *Fabric, src, dst NodeID) {
	tb.Helper()
	cfg := Myrinet(64)
	cfg.Topo = topo
	f, err := New(e, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	f.SetDeliveryPort(63, 0, func(pkt *Packet) { f.FreePacket(pkt) })
	return f, 0, 63
}

// send transmits one pooled 256-byte packet from src to dst.
func send(p *sim.Proc, f *Fabric, src, dst NodeID) {
	pkt := f.NewPacket()
	pkt.Src = src
	pkt.Dst = dst
	pkt.Bytes = 256
	f.Send(p, pkt)
}

// BenchmarkFabricDelivery measures the switched-fabric send/deliver hot
// path with pooled packets, on the flat crossbar and on a fat-tree
// (where every send also walks its route through the switches): port
// dispatch and fault lookups are slice-indexed, the route lands in the
// fabric's scratch slice and the packet is recycled, so steady state
// runs at zero allocations per delivery on both.
func BenchmarkFabricDelivery(b *testing.B) {
	fatTree, err := TopoByName("fattree", 64)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		topo Topology
	}{{"crossbar", nil}, {"fattree", fatTree}} {
		b.Run(c.name, func(b *testing.B) {
			e := sim.NewEngine(1)
			defer e.Close()
			f, src, dst := deliveryFabric(b, e, c.topo)
			n := b.N
			e.Spawn("tx", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					send(p, f, src, dst)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			if got := int(f.Stats().Delivered); got != n {
				b.Fatalf("delivered %d, want %d", got, n)
			}
		})
	}
}

// TestRoutedSendDoesNotAllocate pins the zero-allocation claim on a
// topology fabric: a steady stream of routed sends across a fat-tree
// (five switch links per packet) allocates nothing — not the route
// buffer, not the packet, not the delivery event.
func TestRoutedSendDoesNotAllocate(t *testing.T) {
	topo, err := TopoByName("fattree", 64)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(1)
	defer e.Close()
	f, src, dst := deliveryFabric(t, e, topo)
	stop := false
	e.Spawn("tx", func(p *sim.Proc) {
		for !stop {
			send(p, f, src, dst)
		}
	})
	// Run past the spawn and the pool's first packets into steady state.
	if err := e.RunUntil(e.Now() + 100*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	before := f.Stats().Delivered
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.RunUntil(e.Now() + 20*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	stop = true
	if sent := f.Stats().Delivered - before; sent < 50 {
		t.Fatalf("only %d packets delivered while measuring; the stream stalled", sent)
	}
	if allocs != 0 {
		t.Fatalf("routed sends allocated %.2f times per 20 µs of traffic, want 0", allocs)
	}
}
