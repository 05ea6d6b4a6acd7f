// In-network collectives: barrier, broadcast and reduce executed by the
// fabric's switches instead of by a software tree of endpoint-to-
// endpoint messages.
//
// The software tree (Comm.Barrier and friends) pays the full AM stack
// at every tree level: send overhead, wire, receive overhead, dispatch
// — times two for the gather and release waves. Switch-resident
// combining (SHARP-style, and the NOW lineage's "put the barrier in
// the switch" argument) collapses that: each rank injects ONE control
// message at its ingress switch, switches combine partial results on
// the up-path of the topology's CombineTree, and the root multicasts
// the result down, fanning out at every switch. Host CPUs pay exactly
// one send overhead and one receive overhead per operation regardless
// of cluster size; the remaining cost is switch-hop latency, which
// grows with the PHYSICAL tree depth, not with log_k(n) software-tree
// depth times the full AM round-trip.
//
// Cost model (documented modeling choice): the combine plane is a
// reliable dedicated channel inside the switches — combine/multicast
// hops pay serialization + wire latency per switch-to-switch edge but
// do not contend with data-plane traffic on internal links, and no
// loss is applied to them. The host edges DO touch the shared NIC
// links: injection occupies the rank's transmit link, and the final
// multicast hop reserves the rank's receive link, so a rank busy
// receiving bulk data delays its own barrier release exactly as a real
// NIC would.
//
// Epoch safety: every operation is tagged with the calling rank's
// per-operation epoch counter. All ranks execute the same collective
// sequence, so epoch tags agree across ranks. A switch accumulates one
// epoch per operation kind at a time: no rank can inject epoch k+1
// before it was released from epoch k, and that release needed every
// switch's epoch-k combine. A contribution whose epoch disagrees with
// the one being combined panics. The combine plane itself never
// retries or reorders; the AM layer's retry machinery is not involved.
//
// Events: every hop is scheduled with Engine.AtArg on one of three
// handlers bound once in NewInNet, with a long-lived record as the
// arg — a rank's injection slot, a switch's forward slot, or a stop of
// a pooled multicast wave — so steady-state operations allocate
// nothing per rank or per hop (DESIGN.md §13).
package collective

import (
	"fmt"
	"slices"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// InNetConfig parameterises the in-network plane.
type InNetConfig struct {
	// CtrlBytes is the wire size of one combine-plane control message
	// (barrier credits, reduce partials, multicast headers). Default 16.
	CtrlBytes int
}

// opKind names the three operations the combine plane runs. Every
// switch keeps one accumulator per kind, so the kinds never mix.
type opKind uint8

const (
	opBarrier opKind = iota
	opBroadcast
	opAllReduce
	numOps
)

// spanNames names each kind's multicast-wave span.
var spanNames = [numOps]string{"innet.combine.barrier", "innet.combine.broadcast", "innet.combine.allreduce"}

// msg is one combine-plane payload: what a rank injects, what a switch
// forwards up, and what the multicast delivers.
type msg struct {
	kind  opKind
	epoch uint64
	sum   int64 // allreduce: partial or total
	val   any   // broadcast: the value
	bytes int   // payload bytes on the wire (control header excluded)
}

// upMsg is a msg climbing toward the root. It lives in a long-lived
// slot — a rank's injection or a switch's forward — and is the arg of
// its arrival event, so climbing allocates nothing.
type upMsg struct {
	msg
	to *combiner // accumulator it lands in; nil while not in flight
}

// combiner is one switch's accumulator for one operation kind. One
// slot is enough: a switch sees epoch k+1 of a kind only from a rank
// that was released from epoch k, and that release needed this
// switch's epoch-k forward to land. So one epoch accumulates here at a
// time, and at most one forward (out) is in flight.
type combiner struct {
	sw     int       // id of the switch it belongs to
	parent *combiner // same kind one switch up; nil at the root
	need   int       // contributions per combine: 1 for broadcast, which only climbs
	n      int       // contributions seen this epoch
	acc    msg       // the epoch being combined
	out    upMsg     // the forward to parent
}

// swNode is one switch's combine-plane state.
type swNode struct {
	kids  []int       // participant-bearing child switches, ascending
	hosts []*rankNode // ranks attached here, ascending
	up    [numOps]combiner
}

// rankNode is one rank's in-network operation state.
type rankNode struct {
	rank  int
	node  netsim.NodeID
	sw    *swNode
	epoch [numOps]uint64 // next epoch per kind
	inj   upMsg          // this rank's injection
	inbox []msg          // delivered results not yet collected
	sig   *sim.Signal
}

// wave is one multicast down the tree. Its stops are the args of its
// events — one per switch, one per rank — so fanning out allocates
// nothing; waves recycle through InNet.free once every rank has its
// copy.
type wave struct {
	res     msg
	span    obs.SpanID
	pending int        // host deliveries still to land
	at      []waveStop // per switch id
	to      []waveStop // per rank
	next    *wave      // free list
}

// waveStop is one place a wave reaches: a switch, or a rank.
type waveStop struct {
	w *wave
	i int
}

// innetMetrics holds the plane's collector handles; nil when not
// instrumented.
type innetMetrics struct {
	ops      *obs.Counter   // collective.innet.ops
	combines *obs.Counter   // collective.innet.combines
	opNs     *obs.Histogram // collective.innet.op.ns
}

// InNet executes collectives inside the fabric switches of a Comm's
// topology. Build one per communicator; operations mirror the Comm's
// (same epochs-per-rank discipline), so a program can run the same
// sequence through either plane and compare.
type InNet struct {
	c    *Comm
	eng  *sim.Engine
	fab  *netsim.Fabric
	ctrl int
	lat  sim.Duration

	sw    []swNode
	ranks []rankNode
	free  *wave
	reg   *obs.Registry
	m     *innetMetrics

	// Bound event handlers, created once so that scheduling with
	// Engine.AtArg allocates no closure (the Fabric.deliverFn pattern).
	upFn, downFn, deliverFn func(any)
}

// NewInNet builds the in-network plane over c's fabric topology. Every
// rank must be local (the combine plane shares switch state, so it runs
// single-engine — sharded fabrics reject topologies for the same
// reason). The flat crossbar degenerates to a single combining switch:
// one injection, one combine, one multicast.
func NewInNet(c *Comm, cfg InNetConfig) (*InNet, error) {
	if cfg.CtrlBytes <= 0 {
		cfg.CtrlBytes = 16
	}
	maxNode := netsim.NodeID(0)
	for r := 0; r < c.n; r++ {
		if c.eps[r] == nil {
			return nil, fmt.Errorf("collective: in-network plane needs every rank local; rank %d is remote", r)
		}
		if c.nodeOf[r] > maxNode {
			maxNode = c.nodeOf[r]
		}
	}
	fab := c.eps[0].Fabric()
	tree := netsim.CombineTreeOf(fab.Topology(), int(maxNode)+1)
	x := &InNet{
		c:     c,
		eng:   c.eng,
		fab:   fab,
		ctrl:  cfg.CtrlBytes,
		lat:   fab.Config().Latency,
		sw:    make([]swNode, len(tree.Parent)),
		ranks: make([]rankNode, c.n),
	}
	x.upFn, x.downFn, x.deliverFn = x.arriveUp, x.arriveDown, x.deliver
	for r := range x.ranks {
		rn := &x.ranks[r]
		rn.rank = r
		rn.node = c.node(r)
		rn.sw = &x.sw[tree.SwitchOf[rn.node]]
		rn.sw.hosts = append(rn.sw.hosts, rn)
		rn.sig = sim.NewSignal(c.eng, fmt.Sprintf("innet%d", r))
	}
	// Participant-bearing switches only: a switch whose subtree holds no
	// ranks never combines and never multicasts. Mark host-bearing
	// switches and propagate toward the root, then wire child lists.
	active := make([]bool, len(x.sw))
	for s := range x.sw {
		if len(x.sw[s].hosts) == 0 {
			continue
		}
		for q := s; q >= 0 && !active[q]; q = tree.Parent[q] {
			active[q] = true
		}
	}
	for s := range x.sw {
		if par := tree.Parent[s]; active[s] && par >= 0 {
			x.sw[par].kids = append(x.sw[par].kids, s)
		}
	}
	for s := range x.sw {
		if !active[s] {
			continue
		}
		st := &x.sw[s]
		for k := range st.up {
			cb := &st.up[k]
			cb.sw = s
			cb.need = len(st.kids) + len(st.hosts)
			if opKind(k) == opBroadcast {
				cb.need = 1
			}
			if par := tree.Parent[s]; par >= 0 {
				cb.parent = &x.sw[par].up[k]
			}
		}
	}
	return x, nil
}

// Instrument attaches metrics collectors and the span recorder. Call
// once per registry; a nil registry is a no-op.
//
// Metrics (names per docs/OBSERVABILITY.md):
//
//	collective.innet.ops       in-network operation completions (per rank)
//	collective.innet.combines  switch combine events (one per switch per
//	                           barrier or allreduce that saw all
//	                           contributions)
//	collective.innet.op.ns     per-rank in-network operation latency
//
// Each operation also records one "innet.combine" span (node -1) from
// the root switch's combine to the last host delivery of the multicast.
func (x *InNet) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	x.reg = r
	x.m = &innetMetrics{
		ops:      r.Counter("collective.innet.ops"),
		combines: r.Counter("collective.innet.combines"),
		opNs:     r.Histogram("collective.innet.op.ns", obs.DurationBuckets),
	}
}

// hop is the switch-to-switch edge cost for a bytes-sized message.
func (x *InNet) hop(bytes int) sim.Duration {
	return x.fab.SerializationTime(bytes) + x.lat
}

// Barrier blocks the calling rank until every rank has entered the
// barrier, combining arrival credits at the switches and multicasting
// the release. One injected message and one received message per rank,
// total, regardless of cluster size.
func (x *InNet) Barrier(p *sim.Proc, rank int) error {
	x.run(p, rank, msg{kind: opBarrier})
	return nil
}

// Broadcast distributes rank 0's value to every rank through the
// switch tree: the value climbs from rank 0's ingress switch to the
// root, then multicasts down. Every rank (rank 0 included) receives
// its copy off its own switch.
func (x *InNet) Broadcast(p *sim.Proc, rank int, val any, bytes int) (any, error) {
	got := x.run(p, rank, msg{kind: opBroadcast, val: val, bytes: bytes})
	return got.val, nil
}

// AllReduce is the in-network plane's flagship: reduce up, multicast
// the total down, every rank gets the global sum with one injection
// and one delivery.
func (x *InNet) AllReduce(p *sim.Proc, rank int, v int64) (int64, error) {
	got := x.run(p, rank, msg{kind: opAllReduce, sum: v, bytes: x.c.cfg.ElemBytes})
	return got.sum, nil
}

// run is one rank's side of every operation: stamp the rank's next
// epoch of the kind, inject (every rank, except that only rank 0
// injects a broadcast) — send CPU overhead and transmit-link occupancy,
// then arrival at the ingress switch one latency later — and wait for
// the multicast to deliver the result, paying the receive overhead.
func (x *InNet) run(p *sim.Proc, rank int, m msg) msg {
	start := x.eng.Now()
	rn := &x.ranks[rank]
	m.epoch = rn.epoch[m.kind]
	rn.epoch[m.kind]++
	if m.kind != opBroadcast || rank == 0 {
		x.c.eps[rank].ChargeSend(p, m.bytes)
		x.fab.OccupyTx(p, rn.node, x.ctrl+m.bytes)
		x.sendUp(&rn.inj, &rn.sw.up[m.kind], m, x.lat)
	}
	got := rn.await(p, m.kind, m.epoch)
	x.c.eps[rank].ChargeRecv(p, got.bytes)
	if x.m != nil {
		x.m.ops.Inc()
		x.m.opNs.Observe(int64(x.eng.Now() - start))
	}
	return got
}

// await parks the rank until the result of (kind, epoch) is in its
// inbox, and takes it out. A broadcast rank can hold several: rank 0
// starts wave k+1 as soon as its own copy of wave k lands, while other
// ranks' copies of wave k still queue on their receive links. They can
// even land out of order: switch hops cost serialization, so a small
// wave k+1 can overtake a large wave k on a deep combine tree (the
// torus's), which is why results are matched by epoch, not popped.
func (rn *rankNode) await(p *sim.Proc, kind opKind, epoch uint64) msg {
	for {
		for i, got := range rn.inbox {
			if got.kind == kind && got.epoch == epoch {
				rn.inbox = slices.Delete(rn.inbox, i, i+1)
				return got
			}
		}
		rn.sig.Wait(p)
	}
}

// sendUp schedules m's arrival at accumulator to, d from now, carried
// in the long-lived slot.
func (x *InNet) sendUp(slot *upMsg, to *combiner, m msg, d sim.Duration) {
	if slot.to != nil {
		panic(fmt.Sprintf("collective: combine-plane %v epoch %d sent while epoch %d is still in flight",
			spanNames[m.kind], m.epoch, slot.epoch))
	}
	slot.msg, slot.to = m, to
	x.eng.AtArg(x.eng.Now()+d, x.upFn, slot)
}

// arriveUp lands one upMsg in its accumulator. When the switch has
// heard from its whole subtree it forwards one message up, or, at the
// root, starts the multicast. Event context.
func (x *InNet) arriveUp(arg any) {
	slot := arg.(*upMsg)
	cb := slot.to
	slot.to = nil
	m := slot.msg
	if cb.n == 0 {
		cb.acc = m
	} else {
		if cb.acc.epoch != m.epoch {
			panic(fmt.Sprintf("collective: switch %d got %s epoch %d while combining epoch %d",
				cb.sw, spanNames[m.kind], m.epoch, cb.acc.epoch))
		}
		cb.acc.sum += m.sum
	}
	cb.n++
	if cb.n < cb.need {
		return
	}
	cb.n = 0
	if x.m != nil && m.kind != opBroadcast {
		x.m.combines.Inc()
	}
	if cb.parent != nil {
		x.sendUp(&cb.out, cb.parent, cb.acc, x.hop(x.ctrl+cb.acc.bytes))
		return
	}
	w := x.free
	if w != nil {
		x.free = w.next
	} else {
		w = &wave{at: make([]waveStop, len(x.sw)), to: make([]waveStop, len(x.ranks))}
		for i := range w.at {
			w.at[i] = waveStop{w, i}
		}
		for i := range w.to {
			w.to[i] = waveStop{w, i}
		}
	}
	w.res, w.pending = cb.acc, len(x.ranks)
	w.span = x.reg.StartSpan(spanNames[m.kind], -1)
	x.multicast(w, cb.sw)
}

// arriveDown is a wave reaching a child switch. Event context.
func (x *InNet) arriveDown(arg any) {
	st := arg.(*waveStop)
	x.multicast(st.w, st.i)
}

// multicast fans wave w out from switch sw: child switches hear it one
// hop later, and every attached rank's receive link is reserved for
// the final edge — that is where the combine plane meets the data
// plane.
func (x *InNet) multicast(w *wave, sw int) {
	s := &x.sw[sw]
	now := x.eng.Now()
	for _, kid := range s.kids {
		x.eng.AtArg(now+x.hop(x.ctrl+w.res.bytes), x.downFn, &w.at[kid])
	}
	ser := x.fab.SerializationTime(x.ctrl + w.res.bytes)
	for _, rn := range s.hosts {
		done := x.fab.ReserveRx(rn.node, now+x.lat, ser)
		x.eng.AtArg(done, x.deliverFn, &w.to[rn.rank])
	}
}

// deliver hands a wave's result to one rank at its delivery time, and
// closes the wave's span (and recycles the wave) at the last one.
// Event context.
func (x *InNet) deliver(arg any) {
	st := arg.(*waveStop)
	w, rn := st.w, &x.ranks[st.i]
	rn.inbox = append(rn.inbox, w.res)
	rn.sig.Broadcast()
	w.pending--
	if w.pending == 0 {
		x.reg.EndSpan(w.span)
		w.res = msg{}
		w.next, x.free = x.free, w
	}
}

// PredictInNetBarrier estimates the in-network barrier on a combine
// tree of physical depth d: one host injection (send overhead +
// serialization + latency), d combine hops up, d multicast hops down,
// one host delivery (latency + serialization + receive overhead). The
// contrast with PredictBarrier is the point: the software tree pays
// the full AM round-trip per LOGICAL tree level, twice.
func PredictInNetBarrier(amCfg am.Config, fabCfg netsim.Config, depth, ctrlBytes int) sim.Duration {
	if ctrlBytes <= 0 {
		ctrlBytes = 16
	}
	ser := serTime(fabCfg, ctrlBytes)
	edge := ser + fabCfg.Latency
	return amCfg.SendOverhead + ser + fabCfg.Latency + // inject
		2*sim.Duration(depth)*edge + // up + down switch hops
		fabCfg.Latency + ser + amCfg.RecvOverhead // final delivery
}
