package netsim

import (
	"testing"
	"testing/quick"

	"github.com/nowproject/now/internal/sim"
)

func newTestFabric(t *testing.T, e *sim.Engine, cfg Config) *Fabric {
	t.Helper()
	f, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	if _, err := New(e, Config{Nodes: 0, BandwidthMbps: 10}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(e, Config{Nodes: 2, BandwidthMbps: 0}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := New(e, Config{Nodes: 2, BandwidthMbps: 10, LossProb: 1.5}); err == nil {
		t.Error("bad loss probability accepted")
	}
}

func TestSwitchedDeliveryTime(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := Config{Name: "sw", Nodes: 4, BandwidthMbps: 155, Latency: 20 * sim.Microsecond}
	f := newTestFabric(t, e, cfg)
	var arrived sim.Time
	f.SetDeliveryPort(1, 0, func(pkt *Packet) { arrived = e.Now() })
	e.Spawn("tx", func(p *sim.Proc) {
		f.Send(p, &Packet{Src: 0, Dst: 1, Bytes: 8192})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 8 KB at 155 Mb/s ≈ 423 µs serialization + 20 µs latency.
	want := f.SerializationTime(8192) + cfg.Latency
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
	if arrived < 430*sim.Microsecond || arrived > 460*sim.Microsecond {
		t.Fatalf("8KB over ATM took %v, expected ≈443µs", arrived)
	}
}

func TestSharedMediumSerialisesSenders(t *testing.T) {
	e := sim.NewEngine(1)
	f := newTestFabric(t, e, Ethernet10(4))
	var arrivals []sim.Time
	f.SetDeliveryPort(3, 0, func(pkt *Packet) { arrivals = append(arrivals, e.Now()) })
	for src := 0; src < 2; src++ {
		src := NodeID(src)
		e.Spawn("tx", func(p *sim.Proc) {
			f.Send(p, &Packet{Src: src, Dst: 3, Bytes: 8192})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	ser := f.SerializationTime(8192)
	// Second sender had to wait for the medium: arrivals one full
	// serialization apart.
	if gap := arrivals[1] - arrivals[0]; gap != ser {
		t.Fatalf("gap = %v, want %v", gap, ser)
	}
}

func TestSwitchedFabricScalesWithSenders(t *testing.T) {
	// The paper's core hardware claim: switched LANs let bandwidth scale
	// with the number of processors. N disjoint pairs finish in the time
	// of one transfer on a switched fabric, N transfers on a shared one.
	finishTime := func(cfg Config) sim.Time {
		e := sim.NewEngine(1)
		f, err := New(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var last sim.Time
		for i := 0; i < 4; i++ {
			f.SetDeliveryPort(NodeID(i+4), 0, func(pkt *Packet) {
				if e.Now() > last {
					last = e.Now()
				}
			})
			src := NodeID(i)
			dst := NodeID(i + 4)
			e.Spawn("tx", func(p *sim.Proc) {
				f.Send(p, &Packet{Src: src, Dst: dst, Bytes: 64 * 1024})
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	shared := finishTime(Config{Name: "sh", Nodes: 8, BandwidthMbps: 100, Latency: 10 * sim.Microsecond, Shared: true})
	switched := finishTime(Config{Name: "sw", Nodes: 8, BandwidthMbps: 100, Latency: 10 * sim.Microsecond})
	ratio := float64(shared) / float64(switched)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("shared/switched = %.2f, want ≈4 (4 disjoint pairs)", ratio)
	}
}

func TestReceiverLinkContentionQueuesIncast(t *testing.T) {
	e := sim.NewEngine(1)
	f := newTestFabric(t, e, Config{Name: "sw", Nodes: 4, BandwidthMbps: 100, Latency: 10 * sim.Microsecond})
	var arrivals []sim.Time
	f.SetDeliveryPort(3, 0, func(pkt *Packet) { arrivals = append(arrivals, e.Now()) })
	for src := 0; src < 3; src++ {
		src := NodeID(src)
		e.Spawn("tx", func(p *sim.Proc) {
			f.Send(p, &Packet{Src: src, Dst: 3, Bytes: 10000})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	ser := f.SerializationTime(10000)
	for i := 1; i < len(arrivals); i++ {
		if gap := arrivals[i] - arrivals[i-1]; gap < ser {
			t.Fatalf("incast arrivals %v closer than one serialization %v", arrivals, ser)
		}
	}
}

func TestSelfSendBypassesWire(t *testing.T) {
	e := sim.NewEngine(1)
	f := newTestFabric(t, e, Ethernet10(2))
	var arrived sim.Time
	arrivedSet := false
	f.SetDeliveryPort(0, 0, func(pkt *Packet) { arrived, arrivedSet = e.Now(), true })
	e.Spawn("tx", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		f.Send(p, &Packet{Src: 0, Dst: 0, Bytes: 1 << 20})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !arrivedSet || arrived != 5*sim.Microsecond {
		t.Fatalf("self-send arrived at %v (set=%v)", arrived, arrivedSet)
	}
	if f.Stats().SelfSends != 1 {
		t.Fatalf("stats = %+v", f.Stats())
	}
}

func TestLossInjectionDropsSome(t *testing.T) {
	e := sim.NewEngine(7)
	cfg := Config{Name: "lossy", Nodes: 2, BandwidthMbps: 100, Latency: sim.Microsecond, LossProb: 0.3}
	f := newTestFabric(t, e, cfg)
	delivered := 0
	f.SetDeliveryPort(1, 0, func(pkt *Packet) { delivered++ })
	e.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			f.Send(p, &Packet{Src: 0, Dst: 1, Bytes: 100})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Drops == 0 {
		t.Fatal("no drops with LossProb=0.3")
	}
	if delivered+int(st.Drops) != 1000 {
		t.Fatalf("delivered %d + drops %d != 1000", delivered, st.Drops)
	}
	frac := float64(st.Drops) / 1000
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("drop fraction = %v, want ≈0.3", frac)
	}
}

func TestStatsCountBytes(t *testing.T) {
	e := sim.NewEngine(1)
	f := newTestFabric(t, e, ATM155(2))
	f.SetDeliveryPort(1, 0, func(pkt *Packet) {})
	e.Spawn("tx", func(p *sim.Proc) {
		f.Send(p, &Packet{Src: 0, Dst: 1, Bytes: 100})
		f.Send(p, &Packet{Src: 0, Dst: 1, Bytes: 200})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Offered != 2 || st.OfferedBytes != 300 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Delivered != 2 || st.DeliveredBytes != 300 {
		t.Fatalf("loss-free run must deliver everything offered: %+v", st)
	}
}

// TestPacketPoolRecycles: NewPacket/FreePacket reuse structs, literals
// are ignored, and a freed packet comes back zeroed.
func TestPacketPoolRecycles(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	f := newTestFabric(t, e, ATM155(2))
	p1 := f.NewPacket()
	p1.Src, p1.Dst, p1.Bytes, p1.Payload = 0, 1, 64, "x"
	f.FreePacket(p1)
	p2 := f.NewPacket()
	if p2 != p1 {
		t.Fatal("pool did not recycle the freed packet")
	}
	if p2.Bytes != 0 || p2.Payload != nil || p2.Src != 0 || p2.Dst != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", p2)
	}
	lit := &Packet{Src: 0, Dst: 1}
	f.FreePacket(lit) // must be a no-op
	if got := f.NewPacket(); got == lit {
		t.Fatal("literal packet entered the pool")
	}
	f.FreePacket(nil) // must not panic
}

func TestUnhandledDestinationDoesNotCrash(t *testing.T) {
	e := sim.NewEngine(1)
	f := newTestFabric(t, e, ATM155(2))
	e.Spawn("tx", func(p *sim.Proc) {
		f.Send(p, &Packet{Src: 0, Dst: 1, Bytes: 64})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMediumUtilization(t *testing.T) {
	e := sim.NewEngine(1)
	f := newTestFabric(t, e, Ethernet10(2))
	f.SetDeliveryPort(1, 0, func(pkt *Packet) {})
	e.Spawn("tx", func(p *sim.Proc) {
		f.Send(p, &Packet{Src: 0, Dst: 1, Bytes: 8192})
		p.Sleep(f.SerializationTime(8192)) // idle as long as we were busy
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	u := f.medium.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Fatalf("utilization = %v, want ≈0.5", u)
	}
	// Switched fabric reports zero.
	e2 := sim.NewEngine(1)
	defer e2.Close()
	f2 := newTestFabric(t, e2, ATM155(2))
	if f2.medium != nil {
		t.Fatal("switched fabric should have no shared medium")
	}
}

func TestPresetShapes(t *testing.T) {
	if cfg := Ethernet10(8); !cfg.Shared || cfg.BandwidthMbps != 10 {
		t.Fatalf("Ethernet10 = %+v", cfg)
	}
	if cfg := ATM155(8); cfg.Shared || cfg.BandwidthMbps != 155 {
		t.Fatalf("ATM155 = %+v", cfg)
	}
	if cfg := FDDI100(8); !cfg.Shared {
		t.Fatalf("FDDI100 = %+v", cfg)
	}
	if cfg := Myrinet(8); cfg.Shared || cfg.BandwidthMbps < 600 {
		t.Fatalf("Myrinet = %+v", cfg)
	}
}

// Property: delivery time is monotone non-decreasing in packet size and
// never earlier than send time + latency.
func TestDeliveryTimeMonotoneProperty(t *testing.T) {
	f := func(sz uint16) bool {
		size := int(sz)%60000 + 1
		e := sim.NewEngine(1)
		fab, err := New(e, ATM155(2))
		if err != nil {
			return false
		}
		var arrived sim.Time
		fab.SetDeliveryPort(1, 0, func(pkt *Packet) { arrived = e.Now() })
		e.Spawn("tx", func(p *sim.Proc) {
			fab.Send(p, &Packet{Src: 0, Dst: 1, Bytes: size})
		})
		if err := e.Run(); err != nil {
			return false
		}
		minTime := ATM155(2).Latency
		return arrived >= minTime && arrived == fab.SerializationTime(size)+ATM155(2).Latency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
