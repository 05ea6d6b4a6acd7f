package netsim

import (
	"testing"

	"github.com/nowproject/now/internal/sim"
)

// BenchmarkFabricDelivery measures the switched-fabric send/deliver hot
// path with pooled packets: port dispatch and fault lookups are
// slice-indexed and the packet is recycled, so steady state runs at
// zero allocations per delivery.
func BenchmarkFabricDelivery(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Close()
	f, err := New(e, Myrinet(4))
	if err != nil {
		b.Fatal(err)
	}
	f.SetDeliveryPort(1, 0, func(pkt *Packet) { f.FreePacket(pkt) })
	n := b.N
	e.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pkt := f.NewPacket()
			pkt.Src = 0
			pkt.Dst = 1
			pkt.Bytes = 256
			f.Send(p, pkt)
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
}
