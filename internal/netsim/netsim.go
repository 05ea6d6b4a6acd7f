// Package netsim models the local-area fabrics the NOW paper contrasts:
// the shared 10 Mb/s Ethernet of 1994 departmental LANs, and the
// emerging switched fabrics (ATM, FDDI, Myrinet-class MPP networks) whose
// bandwidth scales with the number of nodes.
//
// The model separates, as the paper insists one must, the three
// components of communication cost:
//
//   - processor overhead (o): charged by the protocol layers in
//     internal/proto, NOT here — overhead is CPU time and belongs to the
//     sending/receiving host;
//   - serialization/bandwidth (bytes/G): charged here, on the contended
//     medium (shared fabric) or per-node links (switched fabric);
//   - network latency (L): charged here, between end of transmission and
//     delivery.
//
// A switched fabric is cut-through (the paper: "fast, single-chip
// switches employing cut-through routing"): an uncontended packet is
// fully received at tx_end + latency. Receiver-link contention is
// modelled analytically with a per-destination busy-until horizon, so
// incast (the Column benchmark's failure mode) queues where it should.
// The drop decision (partition, link fault, background loss) is made
// BEFORE a packet reserves the destination link: a packet the fabric
// swallows never delays healthy traffic. Injected link delay is folded
// into the occupancy horizon, so delivery on a (src, dst) pair is FIFO
// even while the link's fault state churns.
//
// Accounting distinguishes offered load (packets that finished
// transmission) from delivered load (packets handed to a delivery
// handler); the difference is Drops. Self-sends bypass the wire and are
// counted separately in neither.
//
// The delivery hot path is map-free: per-node handler tables and
// per-node fault state are slice-indexed, and Packet structs can be
// recycled through the fabric's free list (NewPacket/FreePacket), so a
// 1,024-node collective sweep pays no hashing and little garbage.
//
// Fabric.Instrument attaches an internal/obs registry: offered/delivered
// packet and byte counters, drop counters, a per-message
// delivery-latency histogram, and sampled medium or per-link utilisation
// gauges (docs/OBSERVABILITY.md).
package netsim

import (
	"fmt"

	"github.com/nowproject/now/internal/sim"
)

// NodeID identifies a workstation on the fabric (dense, 0-based).
type NodeID int

// Packet is one network transmission. Bytes is the on-the-wire size
// including whatever headers the protocol layer added; Payload is the
// simulated content, opaque to the fabric. Port demultiplexes endpoints
// sharing one node (e.g. the per-job communication contexts of the
// coscheduling study); SrcPort lets the receiver address its reply.
type Packet struct {
	Src, Dst NodeID
	Port     int
	SrcPort  int
	Bytes    int
	Payload  any
	Sent     sim.Time // stamped by Send
	// pooled marks packets obtained from Fabric.NewPacket; FreePacket
	// recycles only these, so literals remain safe to pass everywhere.
	pooled bool
}

// Delivery receives packets at their arrival time. It runs in engine
// event context and must not block; protocol layers enqueue into a
// mailbox and return.
type Delivery func(pkt *Packet)

// Config describes a fabric.
type Config struct {
	// Name appears in diagnostics ("ethernet", "atm", "myrinet").
	Name string
	// Nodes is the number of attached workstations.
	Nodes int
	// BandwidthMbps is the link (switched) or medium (shared) bit rate
	// in megabits per second.
	BandwidthMbps float64
	// Latency is the network latency L: propagation plus switch routing
	// time for one traversal.
	Latency sim.Duration
	// Shared selects a single contended medium (Ethernet, FDDI ring)
	// instead of a per-node-link switched fabric.
	Shared bool
	// PerPacketWire is a fixed per-packet wire cost (preamble, cell
	// framing) added to the serialization time.
	PerPacketWire sim.Duration
	// LossProb is the probability a packet is silently dropped after
	// transmission, exercising the protocol layers' timeout/retry paths.
	LossProb float64
	// Topo selects the internal switch structure of a switched fabric
	// (topology.go): nil is the flat single-switch crossbar, where every
	// pair of nodes is one Latency apart and only destination links
	// contend. With a topology, packets walk its deterministic route and
	// charge Latency plus busy-until contention on every internal link.
	// Shared-medium fabrics take no topology.
	Topo Topology
}

// Stats aggregates fabric activity over a run. Offered counts packets
// that finished transmission whether or not they were then dropped;
// Delivered counts the subset actually handed to a delivery handler, so
// Offered - Delivered == Drops always holds. Self-sends bypass the wire
// and appear in neither.
type Stats struct {
	Offered        int64
	OfferedBytes   int64
	Delivered      int64
	DeliveredBytes int64
	Drops          int64
	SelfSends      int64
	// InjectedDrops is the subset of Drops caused by injected faults
	// (partitions and per-link loss windows) rather than the fabric's
	// configured background LossProb.
	InjectedDrops int64
	// CrossSent / CrossRecv count packets handed across partition
	// boundaries on a sharded fabric (see shard.go); both zero on an
	// unsharded fabric. Cross packets are also counted in Offered and,
	// if they survive the accept decision, Delivered — at the source.
	CrossSent int64
	CrossRecv int64
}

// Fabric is a simulated LAN. Create one with New, register per-node
// Delivery handlers, then Send from simulated processes.
type Fabric struct {
	eng      *sim.Engine
	cfg      Config
	medium   *sim.Resource   // shared mode: the one Ethernet segment
	txLinks  []*sim.Resource // switched mode: per-node transmit links
	rxFree   []sim.Time      // switched mode: per-node receive-link horizon
	topo     Topology        // nil: flat crossbar
	linkFree []sim.Time      // per internal-link busy-until horizon (topologies)
	ports    [][]Delivery    // per-node, port-indexed delivery handlers
	pool     []*Packet       // free list for NewPacket/FreePacket
	stats    Stats
	m        *fabricMetrics // nil unless Instrument attached a registry

	// Injected fault state (internal/faults drives these; all nil on a
	// healthy fabric, so the send path pays only nil checks). Rows are
	// allocated lazily per source node the first time a fault touches
	// it; lookups are two slice indexes, never a map.
	group     []int            // partition group per node; nil = unpartitioned
	lossRows  [][]float64      // [src][dst] injected loss probability
	delayRows [][]sim.Duration // [src][dst] injected extra latency

	// deliverFn is the bound deliverPacket method, created once so the
	// per-delivery AtArg schedule allocates no closure.
	deliverFn func(any)

	// cross is non-nil when this Fabric is one partition of a
	// ShardedFabric: sends to nodes owned by other partitions detour
	// through sendCross (shard.go) after the source-side costs are paid.
	cross *crossLink
}

// New builds a fabric on e. Nodes must be positive; bandwidth must be
// positive.
func New(e *sim.Engine, cfg Config) (*Fabric, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("netsim: %d nodes", cfg.Nodes)
	}
	if cfg.BandwidthMbps <= 0 {
		return nil, fmt.Errorf("netsim: bandwidth %v Mb/s", cfg.BandwidthMbps)
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return nil, fmt.Errorf("netsim: loss probability %v", cfg.LossProb)
	}
	if cfg.Topo != nil && cfg.Shared {
		return nil, fmt.Errorf("netsim: shared-medium fabric %q cannot take topology %s", cfg.Name, cfg.Topo.Name())
	}
	f := &Fabric{
		eng:   e,
		cfg:   cfg,
		ports: make([][]Delivery, cfg.Nodes),
	}
	f.deliverFn = f.deliverPacket
	if t := cfg.Topo; t != nil {
		f.topo = t
		f.linkFree = make([]sim.Time, t.NumLinks())
	}
	if cfg.Shared {
		f.medium = sim.NewResource(e, cfg.Name+"/medium", 1)
	} else {
		f.txLinks = make([]*sim.Resource, cfg.Nodes)
		for i := range f.txLinks {
			f.txLinks[i] = sim.NewResource(e, fmt.Sprintf("%s/tx%d", cfg.Name, i), 1)
		}
		f.rxFree = make([]sim.Time, cfg.Nodes)
	}
	return f, nil
}

// Nodes returns the number of attached workstations.
func (f *Fabric) Nodes() int { return f.cfg.Nodes }

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// SetDelivery registers the handler for (node, port 0). Registering nil
// detaches it (packets to it are dropped).
func (f *Fabric) SetDelivery(node NodeID, fn Delivery) {
	f.SetDeliveryPort(node, 0, fn)
}

// SetDeliveryPort registers the handler for one (node, port) endpoint.
// Out-of-range nodes and negative ports are ignored, mirroring the old
// behaviour that packets to unknown endpoints simply vanish.
func (f *Fabric) SetDeliveryPort(node NodeID, port int, fn Delivery) {
	if node < 0 || int(node) >= f.cfg.Nodes || port < 0 {
		return
	}
	ps := f.ports[node]
	if port >= len(ps) {
		if fn == nil {
			return
		}
		grown := make([]Delivery, port+1)
		copy(grown, ps)
		ps, f.ports[node] = grown, grown
	}
	ps[port] = fn
}

// NewPacket returns a zeroed Packet from the fabric's free list. Pair
// it with FreePacket for single-shot packets (acknowledgements, replies)
// whose ownership ends at the receiver; packets built with literals are
// unaffected. The simulation is single-threaded, so a plain slice is a
// correct and deterministic pool.
func (f *Fabric) NewPacket() *Packet {
	if n := len(f.pool); n > 0 {
		pkt := f.pool[n-1]
		f.pool[n-1] = nil
		f.pool = f.pool[:n-1]
		return pkt
	}
	return &Packet{pooled: true}
}

// FreePacket recycles a packet obtained from NewPacket; it is a no-op
// for literal packets, so callers may free anything they have finished
// consuming. Freeing a pooled packet that something else still
// references is a caller bug.
func (f *Fabric) FreePacket(pkt *Packet) {
	if pkt == nil || !pkt.pooled {
		return
	}
	*pkt = Packet{pooled: true}
	f.pool = append(f.pool, pkt)
}

// SerializationTime returns the wire occupancy for a packet of n bytes.
func (f *Fabric) SerializationTime(n int) sim.Duration {
	return sim.PerByte(int64(n), sim.Bandwidth(f.cfg.BandwidthMbps)) + f.cfg.PerPacketWire
}

// Send transmits pkt, blocking p for the source-side wire occupancy
// (media acquisition on a shared fabric, link serialization on both).
// Delivery to the destination handler happens later in virtual time.
// Sending to self bypasses the wire entirely.
func (f *Fabric) Send(p *sim.Proc, pkt *Packet) {
	pkt.Sent = f.eng.Now()
	if pkt.Src == pkt.Dst {
		f.stats.SelfSends++
		f.deliverAt(f.eng.Now(), pkt)
		return
	}
	ser := f.SerializationTime(pkt.Bytes)
	if f.cfg.Shared {
		f.medium.Use(p, 1, ser)
		if !f.accept(pkt) {
			return
		}
		f.deliverAt(f.eng.Now()+f.cfg.Latency+f.injectedDelay(pkt), pkt)
		return
	}
	if f.cross != nil && f.txLinks[pkt.Src] == nil {
		panic(fmt.Sprintf("netsim: send from node %d on partition %d's fabric, which does not own it",
			pkt.Src, f.cross.part))
	}
	f.txLinks[pkt.Src].Use(p, 1, ser)
	// The drop decision comes BEFORE the destination-link reservation: a
	// packet swallowed by a partition, a lossy link, or background loss
	// never occupies the victim's output link, so a flood aimed across a
	// partition boundary cannot delay healthy traffic. The RNG draws
	// happen at the same point in the event schedule as before (after
	// the source-link park, synchronously), so seeded runs replay.
	if !f.accept(pkt) {
		return
	}
	if c := f.cross; c != nil && !c.pm.Local(pkt.Dst, c.part) {
		f.sendCross(pkt, ser)
		return
	}
	// Cut-through: the head of the packet reached the destination link
	// latency after it left; the tail arrives one serialization later.
	// Output-link contention delays us behind earlier arrivals, and any
	// injected link delay is folded into the occupancy window so a later
	// packet on a healing link cannot overtake an earlier one —
	// per-(src,dst) delivery stays FIFO under fault churn.
	//
	// Under a topology the same step repeats per internal link: the
	// head reaches each switch's output link Latency after the tail
	// left the previous one, queues behind that link's busy-until
	// horizon, and the tail follows one serialization later. The route
	// is deterministic per (src, dst) and every horizon is monotone, so
	// per-(src,dst) FIFO survives. With no topology the walk is empty
	// and this is exactly the crossbar formula.
	tail := f.eng.Now()
	hops := 1
	if t := f.topo; t != nil {
		var routeArr [32]int
		for _, li := range t.Route(pkt.Src, pkt.Dst, routeArr[:0]) {
			headAt := tail - ser + f.cfg.Latency
			if f.linkFree[li] > headAt {
				headAt = f.linkFree[li]
			}
			tail = headAt + ser
			f.linkFree[li] = tail
			hops++
		}
	}
	headAtRx := tail - ser + f.cfg.Latency
	outStart := headAtRx
	if f.rxFree[pkt.Dst] > outStart {
		outStart = f.rxFree[pkt.Dst]
	}
	done := outStart + ser + f.injectedDelay(pkt)
	f.rxFree[pkt.Dst] = done
	if m := f.m; m != nil && m.topoHops != nil {
		m.topoHops.Observe(int64(hops))
		// Queueing: how far contention pushed delivery past the
		// uncontended cut-through time (injected delay excluded).
		m.topoQueue.Observe(int64(outStart + ser - (f.eng.Now() + sim.Duration(hops)*f.cfg.Latency)))
	}
	f.deliverAt(done, pkt)
}

// Partition splits the fabric into groups of nodes: nodes listed in
// sets[i] join group i+1, unlisted nodes stay in group 0, and packets
// crossing a group boundary are dropped (counted in Stats.Drops,
// Stats.InjectedDrops and the net.drops/net.drops.injected counters).
// Self-sends bypass the wire and are never partitioned. A new call
// replaces the previous partition; Heal removes it.
func (f *Fabric) Partition(sets ...[]NodeID) {
	f.group = make([]int, f.cfg.Nodes)
	for i, set := range sets {
		for _, n := range set {
			if n >= 0 && int(n) < f.cfg.Nodes {
				f.group[n] = i + 1
			}
		}
	}
}

// Heal removes the current partition; all nodes can reach each other
// again (per-link faults set with SetLinkFault are unaffected).
func (f *Fabric) Heal() { f.group = nil }

// Partitioned reports whether a packet from a to b would be dropped by
// the current partition.
func (f *Fabric) Partitioned(a, b NodeID) bool {
	if f.group == nil || a == b {
		return false
	}
	if a < 0 || b < 0 || int(a) >= len(f.group) || int(b) >= len(f.group) {
		return false
	}
	return f.group[a] != f.group[b]
}

// faultRow returns rows[src], allocating lazily. rows must already be
// non-nil.
func faultRow[T any](rows [][]T, src NodeID, nodes int) []T {
	if rows[src] == nil {
		rows[src] = make([]T, nodes)
	}
	return rows[src]
}

// SetLinkFault degrades the (undirected) link between a and b: packets
// between them are dropped with probability loss and delivered delay
// later than normal. A second call replaces the previous fault on that
// link; ClearLinkFault heals it.
func (f *Fabric) SetLinkFault(a, b NodeID, loss float64, delay sim.Duration) {
	if a < 0 || b < 0 || int(a) >= f.cfg.Nodes || int(b) >= f.cfg.Nodes || a == b {
		return
	}
	if loss < 0 {
		loss = 0
	}
	if delay < 0 {
		delay = 0
	}
	if loss > 0 || f.lossRows != nil {
		if f.lossRows == nil {
			f.lossRows = make([][]float64, f.cfg.Nodes)
		}
		faultRow(f.lossRows, a, f.cfg.Nodes)[b] = loss
		faultRow(f.lossRows, b, f.cfg.Nodes)[a] = loss
	}
	if delay > 0 || f.delayRows != nil {
		if f.delayRows == nil {
			f.delayRows = make([][]sim.Duration, f.cfg.Nodes)
		}
		faultRow(f.delayRows, a, f.cfg.Nodes)[b] = delay
		faultRow(f.delayRows, b, f.cfg.Nodes)[a] = delay
	}
}

// ClearLinkFault removes injected loss and delay from the link between
// a and b.
func (f *Fabric) ClearLinkFault(a, b NodeID) {
	f.SetLinkFault(a, b, 0, 0)
}

// injectedDrop decides whether fault state swallows pkt: a partition
// boundary drops deterministically, a faulted link drops with its
// configured probability (drawn from the engine RNG, so seeded runs
// stay reproducible).
func (f *Fabric) injectedDrop(pkt *Packet) bool {
	if f.Partitioned(pkt.Src, pkt.Dst) {
		return true
	}
	if f.lossRows != nil {
		if row := f.lossRows[pkt.Src]; row != nil {
			if p := row[pkt.Dst]; p > 0 && f.eng.Rand().Float64() < p {
				return true
			}
		}
	}
	return false
}

// injectedDelay reports the extra delivery latency injected on pkt's
// link (zero on a healthy link).
func (f *Fabric) injectedDelay(pkt *Packet) sim.Duration {
	if f.delayRows == nil {
		return 0
	}
	row := f.delayRows[pkt.Src]
	if row == nil {
		return 0
	}
	return row[pkt.Dst]
}

// accept finalises a transmission's fate: it records the offered load,
// applies the drop decision (injected faults first, then background
// loss), and records delivered load for survivors. Dropped pooled
// packets are recycled — nothing downstream will ever see them.
func (f *Fabric) accept(pkt *Packet) bool {
	f.stats.Offered++
	f.stats.OfferedBytes += int64(pkt.Bytes)
	if f.injectedDrop(pkt) {
		f.stats.Drops++
		f.stats.InjectedDrops++
		f.FreePacket(pkt)
		return false
	}
	if f.cfg.LossProb > 0 && f.eng.Rand().Float64() < f.cfg.LossProb {
		f.stats.Drops++
		f.FreePacket(pkt)
		return false
	}
	f.stats.Delivered++
	f.stats.DeliveredBytes += int64(pkt.Bytes)
	return true
}

// deliverAt schedules pkt's arrival. The packet rides in the pooled
// event as the argument of the fabric's one bound deliverPacket method,
// so the hot path schedules with zero allocations and zero map lookups.
func (f *Fabric) deliverAt(at sim.Time, pkt *Packet) {
	f.eng.AtArg(at, f.deliverFn, pkt)
}

func (f *Fabric) deliverPacket(v any) {
	pkt := v.(*Packet)
	if m := f.m; m != nil {
		m.latency.Observe(int64(f.eng.Now() - pkt.Sent))
	}
	var h Delivery
	if ps := f.ports[pkt.Dst]; pkt.Port >= 0 && pkt.Port < len(ps) {
		h = ps[pkt.Port]
	}
	if h != nil {
		h(pkt)
		return
	}
	// No handler at (dst, port): the packet vanishes; recycle it if it
	// came from the pool (a literal's sender may still hold it).
	f.FreePacket(pkt)
}

// Stats returns a snapshot of fabric counters.
func (f *Fabric) Stats() Stats { return f.stats }

// MediumUtilization reports utilisation of the shared medium (0 for
// switched fabrics, where per-link utilisation is the relevant figure).
func (f *Fabric) MediumUtilization() float64 {
	if f.medium == nil {
		return 0
	}
	return f.medium.Utilization()
}

// Topology returns the fabric's internal switch topology (nil for the
// flat crossbar).
func (f *Fabric) Topology() Topology { return f.topo }

// OccupyTx serialises bytes onto src's transmit link (or the shared
// medium), blocking p exactly as Send's source side does, and returns
// the serialization time. The in-network collective plane uses it to
// charge a rank's injection cost for control messages the switch
// fabric consumes (they never reach another NIC, so Send's addressing
// and accounting do not apply).
func (f *Fabric) OccupyTx(p *sim.Proc, src NodeID, bytes int) sim.Duration {
	ser := f.SerializationTime(bytes)
	if f.cfg.Shared {
		f.medium.Use(p, 1, ser)
		return ser
	}
	f.txLinks[src].Use(p, 1, ser)
	return ser
}

// ReserveRx folds one switch-injected packet into dst's receive-link
// busy-until horizon: the head arrives (uncontended) at headAtRx, queues
// behind earlier arrivals, and the tail follows ser later. It returns
// the delivery-complete time. The in-network collective plane uses it
// so down-path multicasts contend with data traffic at the NIC.
func (f *Fabric) ReserveRx(dst NodeID, headAtRx sim.Time, ser sim.Duration) sim.Time {
	outStart := headAtRx
	if f.rxFree[dst] > outStart {
		outStart = f.rxFree[dst]
	}
	done := outStart + ser
	f.rxFree[dst] = done
	return done
}

// TxLinkUtilization reports the time-averaged utilisation of one node's
// transmit link on a switched fabric (0 in shared mode), the per-link
// figure the scale studies record.
func (f *Fabric) TxLinkUtilization(node NodeID) float64 {
	if f.txLinks == nil || node < 0 || int(node) >= len(f.txLinks) || f.txLinks[node] == nil {
		return 0
	}
	return f.txLinks[node].Utilization()
}
