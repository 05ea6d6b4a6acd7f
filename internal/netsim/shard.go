// Sharded fabrics: one switched Fabric per topology partition, each
// bound to one partition engine of a sim.ShardedEngine, with
// cross-partition packets handed off through the sharded driver's
// deterministic mailboxes.
//
// The cost model is split at the wire: the SOURCE partition charges
// everything that happens on the sender's side of the switch — transmit
// link occupancy, the accept decision (partition faults, injected and
// background loss, offered/delivered accounting) and all of its RNG
// draws — so those stay in the source engine's deterministic event
// stream. The DESTINATION partition charges receiver-link contention:
// the handed-off packet carries its head-arrival time and serialization,
// and the destination folds it into its local rx-busy horizon exactly
// like a local packet. The handoff latency is the fabric's wire latency
// L, which is also the sharded engine's conservative lookahead window —
// a packet sent at t is injected at t+L at the earliest, so the window
// invariant "messages sent in window k arrive after window k" holds by
// construction.
//
// The packet is VALUE-copied at the handoff. The sender may retain and
// even rewrite its *Packet (the AM layer stamps retransmissions into the
// same request packet), so sharing the pointer across engines would be a
// data race; the destination materialises the copy from its own pool.
package netsim

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/sim"
)

// ErrUnsupportedSharding is the sentinel wrapped by every "this
// configuration cannot run under a ShardedEngine" rejection — shared
// media and topology-bearing fabrics here, zero-lookahead WANs in
// internal/federation. Callers branch with errors.Is to fall back to a
// single-engine run instead of string-matching the message.
var ErrUnsupportedSharding = errors.New("unsupported sharding")

// PartitionMap assigns every node to one partition. It is part of the
// workload's deterministic identity: the same map must be used at every
// worker count.
type PartitionMap struct {
	part  []int
	parts int
}

// SplitEven partitions nodes into parts contiguous blocks (block i gets
// the nodes [i*nodes/parts, (i+1)*nodes/parts)).
func SplitEven(nodes, parts int) PartitionMap {
	if parts <= 0 {
		parts = 1
	}
	if parts > nodes {
		parts = nodes
	}
	pm := PartitionMap{part: make([]int, nodes), parts: parts}
	for i := 0; i < nodes; i++ {
		pm.part[i] = i * parts / nodes
	}
	return pm
}

// Parts returns the number of partitions.
func (pm PartitionMap) Parts() int { return pm.parts }

// NumNodes returns the number of mapped nodes.
func (pm PartitionMap) NumNodes() int { return len(pm.part) }

// Part returns the partition owning node n.
func (pm PartitionMap) Part(n NodeID) int { return pm.part[n] }

// Local reports whether node n belongs to partition p.
func (pm PartitionMap) Local(n NodeID, p int) bool { return pm.part[n] == p }

// CrossPacket is the handoff record for one cross-partition packet.
type CrossPacket struct {
	HeadAtRx sim.Time     // when the packet's head reaches the rx link (uncontended)
	Ser      sim.Duration // serialization time (tail follows head by this)
	Delay    sim.Duration // injected link delay, applied after rx contention
	Pkt      Packet       // by value: the source keeps its own copy
}

// crossLink is the per-partition-fabric hook into the sharded driver.
type crossLink struct {
	se   *sim.ShardedEngine
	pm   PartitionMap
	part int
}

// ShardedFabric is a switched fabric cut into per-partition Fabrics.
// Register deliveries and send on the partition fabrics (Part); the
// cross-partition path is transparent to protocol layers.
type ShardedFabric struct {
	se    *sim.ShardedEngine
	pm    PartitionMap
	parts []*Fabric
}

// NewSharded builds one Fabric per partition of pm on the matching
// partition engines of se. Only switched fabrics shard — a shared medium
// is a single global resource with zero lookahead, the exact thing the
// paper's switched fabrics exist to replace — and the wire latency must
// be at least the engine's lookahead window or the handoff could miss
// its delivery window.
func NewSharded(se *sim.ShardedEngine, cfg Config, pm PartitionMap) (*ShardedFabric, error) {
	if cfg.Shared {
		return nil, fmt.Errorf("netsim: shared-medium fabric %q: %w", cfg.Name, ErrUnsupportedSharding)
	}
	if cfg.Topo != nil {
		// Internal links would be shared mutable state across partition
		// engines; routing them through the handoff protocol is future
		// work (DESIGN.md §13). Topology studies run single-engine.
		return nil, fmt.Errorf("netsim: topology %s: %w", cfg.Topo.Name(), ErrUnsupportedSharding)
	}
	if pm.NumNodes() != cfg.Nodes {
		return nil, fmt.Errorf("netsim: partition map covers %d nodes, fabric has %d", pm.NumNodes(), cfg.Nodes)
	}
	if pm.Parts() != se.Parts() {
		return nil, fmt.Errorf("netsim: partition map has %d parts, engine has %d", pm.Parts(), se.Parts())
	}
	if cfg.Latency < se.Window() {
		return nil, fmt.Errorf("netsim: latency %v below lookahead window %v", cfg.Latency, se.Window())
	}
	sf := &ShardedFabric{se: se, pm: pm, parts: make([]*Fabric, pm.Parts())}
	for p := range sf.parts {
		f, err := newPart(se, cfg, pm, p)
		if err != nil {
			return nil, err
		}
		sf.parts[p] = f
		se.OnDeliver(p, f.injectCross)
	}
	return sf, nil
}

// newPart builds partition p's fabric slice: full-size node-indexed
// tables, but tx links exist only for local nodes (a remote node never
// transmits here) and the rx horizon is only ever consulted for local
// destinations.
func newPart(se *sim.ShardedEngine, cfg Config, pm PartitionMap, p int) (*Fabric, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("netsim: %d nodes", cfg.Nodes)
	}
	if cfg.BandwidthMbps <= 0 {
		return nil, fmt.Errorf("netsim: bandwidth %v Mb/s", cfg.BandwidthMbps)
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return nil, fmt.Errorf("netsim: loss probability %v", cfg.LossProb)
	}
	e := se.Engine(p)
	f := &Fabric{
		eng:   e,
		cfg:   cfg,
		ports: make([][]Delivery, cfg.Nodes),
		cross: &crossLink{se: se, pm: pm, part: p},
	}
	f.deliverFn = f.deliverPacket
	f.txLinks = make([]*sim.Resource, cfg.Nodes)
	for i := range f.txLinks {
		if pm.Local(NodeID(i), p) {
			f.txLinks[i] = sim.NewResource(e, fmt.Sprintf("%s/p%d/tx%d", cfg.Name, p, i), 1)
		}
	}
	f.rxFree = make([]sim.Time, cfg.Nodes)
	return f, nil
}

// Part returns partition p's fabric. Protocol layers for nodes in p bind
// to it exactly as they would to an unsharded fabric.
func (sf *ShardedFabric) Part(p int) *Fabric { return sf.parts[p] }

// Stats sums the per-partition fabric counters. Call only while the
// sharded engine is quiescent (before Run or after it returns).
func (sf *ShardedFabric) Stats() Stats {
	var t Stats
	for _, f := range sf.parts {
		s := f.Stats()
		t.Offered += s.Offered
		t.OfferedBytes += s.OfferedBytes
		t.Delivered += s.Delivered
		t.DeliveredBytes += s.DeliveredBytes
		t.Drops += s.Drops
		t.SelfSends += s.SelfSends
		t.InjectedDrops += s.InjectedDrops
		t.CrossSent += s.CrossSent
		t.CrossRecv += s.CrossRecv
	}
	return t
}

// sendCross finishes a transmission whose destination lives on another
// partition: the source side (tx link, accept, accounting, RNG) has
// already run; hand the survivor to the owner of the destination node.
// Called with the source engine mid-event, so se.Send's lookahead check
// sees the true send time.
func (f *Fabric) sendCross(pkt *Packet, ser sim.Duration) {
	c := f.cross
	now := f.eng.Now()
	cp := &CrossPacket{
		HeadAtRx: now - ser + f.cfg.Latency,
		Ser:      ser,
		Delay:    f.injectedDelay(pkt),
		Pkt:      *pkt,
	}
	f.stats.CrossSent++
	// Ordering key: nominal uncontended arrival. Receiver contention is
	// resolved deterministically on the destination side.
	c.se.Send(c.part, c.pm.Part(pkt.Dst), cp.HeadAtRx+ser+cp.Delay, cp)
	// The source's packet ownership ends here; the destination builds
	// its own copy. Pooled packets go back to the source pool.
	f.FreePacket(pkt)
}

// injectCross materialises a handed-off packet on the destination
// partition: reserve the local rx link from the carried head-arrival
// time and schedule delivery. Runs as the sharded engine's OnDeliver
// callback — destination engine quiescent, messages already in
// (At, Src, Seq) order.
func (f *Fabric) injectCross(m sim.ShardMsg) {
	cp := m.Data.(*CrossPacket)
	pkt := f.NewPacket()
	pooled := pkt.pooled
	*pkt = cp.Pkt
	pkt.pooled = pooled
	f.stats.CrossRecv++
	outStart := cp.HeadAtRx
	if f.rxFree[pkt.Dst] > outStart {
		outStart = f.rxFree[pkt.Dst]
	}
	done := outStart + cp.Ser + cp.Delay
	f.rxFree[pkt.Dst] = done
	f.deliverAt(done, pkt)
}
