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
// sequence, so epoch tags agree across ranks, and switches accumulate
// per-(operation, epoch) — a fast subtree injecting epoch k+1 while a
// slow subtree is still combining epoch k lands in a different
// accumulator. The combine plane itself never retries or reorders; the
// AM layer's retry machinery is not involved.
package collective

import (
	"fmt"

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

// swState is one switch's combine-plane state.
type swState struct {
	parent   int   // parent switch, -1 at the root
	kids     []int // participant-bearing child switches, ascending
	hosts    []int // ranks attached here, ascending
	expected int   // contributions per combine: len(kids) + len(hosts)

	bar map[uint64]int     // barrier: contributions seen, per epoch
	red map[uint64]*redAcc // reduce: partial sum + contributions, per epoch
}

// inState is one rank's in-network operation state.
type inState struct {
	barEpoch   uint64
	bcastEpoch uint64
	redEpoch   uint64
	barGot     map[uint64]bool
	bcastGot   map[uint64]bcastMsg
	redGot     map[uint64]int64
	sig        *sim.Signal
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

	sw       []*swState
	swOfRank []int // rank → ingress/egress switch
	rs       []*inState
	barView  map[int]map[uint64]int // per-switch barrier maps, combineUp's view
	reg      *obs.Registry
	m        *innetMetrics
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
		c:    c,
		eng:  c.eng,
		fab:  fab,
		ctrl: cfg.CtrlBytes,
		lat:  fab.Config().Latency,
		sw:   make([]*swState, len(tree.Parent)),
		rs:   make([]*inState, c.n),

		swOfRank: make([]int, c.n),
	}
	for s := range x.sw {
		x.sw[s] = &swState{
			parent: tree.Parent[s],
			bar:    make(map[uint64]int),
			red:    make(map[uint64]*redAcc),
		}
	}
	for r := 0; r < c.n; r++ {
		s := tree.SwitchOf[c.nodeOf[r]]
		x.swOfRank[r] = s
		x.sw[s].hosts = append(x.sw[s].hosts, r)
		x.rs[r] = &inState{
			barGot:   make(map[uint64]bool),
			bcastGot: make(map[uint64]bcastMsg),
			redGot:   make(map[uint64]int64),
			sig:      sim.NewSignal(c.eng, fmt.Sprintf("innet%d", r)),
		}
	}
	// Participant-bearing switches only: a switch whose subtree holds no
	// ranks never combines and never multicasts. Mark host-bearing
	// switches and propagate toward the root, then wire child lists.
	active := make([]bool, len(x.sw))
	for s, st := range x.sw {
		if len(st.hosts) == 0 {
			continue
		}
		for q := s; q >= 0 && !active[q]; q = x.sw[q].parent {
			active[q] = true
		}
	}
	for s, st := range x.sw {
		if !active[s] || st.parent < 0 {
			continue
		}
		p := x.sw[st.parent]
		p.kids = append(p.kids, s)
	}
	for s, st := range x.sw {
		if active[s] {
			st.expected = len(st.kids) + len(st.hosts)
			if st.parent >= 0 && !active[st.parent] {
				return nil, fmt.Errorf("collective: combine tree inconsistent at switch %d", s)
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
//	                           operation that saw all contributions)
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

// swOf returns rank r's ingress/egress switch.
func (x *InNet) swOf(r int) int { return x.swOfRank[r] }

// hop is the switch-to-switch edge cost for a bytes-sized message.
func (x *InNet) hop(bytes int) sim.Duration {
	return x.fab.SerializationTime(bytes) + x.lat
}

// release tracks one multicast wave so its span can close at the last
// host delivery.
type release struct {
	span    obs.SpanID
	pending int
}

func (x *InNet) endRelease(rel *release) {
	rel.pending--
	if rel.pending == 0 {
		x.reg.EndSpan(rel.span)
	}
}

// inject charges the calling rank's side of an operation — send CPU
// overhead and transmit-link occupancy — and schedules the arrival of
// its contribution at the ingress switch.
func (x *InNet) inject(p *sim.Proc, rank, bytes int, arrive func(sw int)) {
	ep := x.c.eps[rank]
	ep.ChargeSend(p, bytes)
	x.fab.OccupyTx(p, x.c.node(rank), x.ctrl+bytes)
	sw := x.swOf(rank)
	x.eng.At(x.eng.Now()+x.lat, func() { arrive(sw) })
}

// combineUp runs one contribution into switch sw's per-epoch counter;
// when the switch has heard from its whole subtree it forwards one
// message up (or, at the root, starts the down wave via atRoot).
// Runs in event context.
func (x *InNet) combineUp(sw int, epoch uint64, counts map[int]map[uint64]int, bytes int, atRoot func(root int)) {
	s := x.sw[sw]
	c := counts[sw]
	if c == nil {
		c = make(map[uint64]int)
		counts[sw] = c
	}
	c[epoch]++
	if c[epoch] < s.expected {
		return
	}
	delete(c, epoch)
	if x.m != nil {
		x.m.combines.Inc()
	}
	if s.parent >= 0 {
		x.eng.At(x.eng.Now()+x.hop(x.ctrl+bytes), func() {
			x.combineUp(s.parent, epoch, counts, bytes, atRoot)
		})
		return
	}
	atRoot(sw)
}

// multicast fans the result out from switch sw: child switches hear it
// one hop later, and every attached rank's receive link is reserved for
// the final edge — that is where the combine plane meets the data
// plane. deliver runs at each rank's delivery time, in event context.
func (x *InNet) multicast(sw int, bytes int, rel *release, deliver func(rank int)) {
	s := x.sw[sw]
	now := x.eng.Now()
	for _, kid := range s.kids {
		k := kid
		x.eng.At(now+x.hop(x.ctrl+bytes), func() { x.multicast(k, bytes, rel, deliver) })
	}
	ser := x.fab.SerializationTime(x.ctrl + bytes)
	for _, h := range s.hosts {
		r := h
		done := x.fab.ReserveRx(x.c.node(r), now+x.lat, ser)
		x.eng.At(done, func() {
			deliver(r)
			x.endRelease(rel)
		})
	}
}

// startRelease opens the multicast-wave span at the root combine.
func (x *InNet) startRelease(op string) *release {
	rel := &release{pending: x.c.n}
	if x.reg != nil {
		rel.span = x.reg.StartSpan("innet.combine."+op, -1)
	}
	return rel
}

// finish records one rank's operation completion.
func (x *InNet) finish(start sim.Time) {
	if x.m != nil {
		x.m.ops.Inc()
		x.m.opNs.Observe(int64(x.eng.Now() - start))
	}
}

// barCounts adapts the per-switch barrier maps to combineUp's shape.
func (x *InNet) barCounts() map[int]map[uint64]int {
	// The maps live on the switches; expose them through one view built
	// at first use per InNet (not per call) to avoid allocation churn.
	if x.barView == nil {
		x.barView = make(map[int]map[uint64]int, len(x.sw))
		for s, st := range x.sw {
			x.barView[s] = st.bar
		}
	}
	return x.barView
}

// Barrier blocks the calling rank until every rank has entered the
// barrier, combining arrival credits at the switches and multicasting
// the release. One injected message and one received message per rank,
// total, regardless of cluster size.
func (x *InNet) Barrier(p *sim.Proc, rank int) error {
	start := x.eng.Now()
	st := x.rs[rank]
	epoch := st.barEpoch
	st.barEpoch++
	x.inject(p, rank, 0, func(sw int) {
		x.combineUp(sw, epoch, x.barCounts(), 0, func(root int) {
			rel := x.startRelease("barrier")
			x.multicast(root, 0, rel, func(r int) {
				rs := x.rs[r]
				rs.barGot[epoch] = true
				rs.sig.Broadcast()
			})
		})
	})
	for !st.barGot[epoch] {
		st.sig.Wait(p)
	}
	delete(st.barGot, epoch)
	x.c.eps[rank].ChargeRecv(p, 0)
	x.finish(start)
	return nil
}

// Broadcast distributes rank 0's value to every rank through the
// switch tree: the value climbs from rank 0's ingress switch to the
// root, then multicasts down. Every rank (rank 0 included) receives
// its copy off its own switch.
func (x *InNet) Broadcast(p *sim.Proc, rank int, val any, bytes int) (any, error) {
	start := x.eng.Now()
	st := x.rs[rank]
	epoch := st.bcastEpoch
	st.bcastEpoch++
	if rank == 0 {
		x.inject(p, rank, bytes, func(sw int) {
			x.climb(sw, bytes, func(root int) {
				rel := x.startRelease("broadcast")
				x.multicast(root, bytes, rel, func(r int) {
					rs := x.rs[r]
					rs.bcastGot[epoch] = bcastMsg{epoch: epoch, val: val, bytes: bytes}
					rs.sig.Broadcast()
				})
			})
		})
	}
	var got bcastMsg
	for {
		if msg, ok := st.bcastGot[epoch]; ok {
			delete(st.bcastGot, epoch)
			got = msg
			break
		}
		st.sig.Wait(p)
	}
	x.c.eps[rank].ChargeRecv(p, got.bytes)
	x.finish(start)
	return got.val, nil
}

// climb forwards a message from switch sw to the root without
// combining (broadcast's up-path: a single source, nothing to merge).
func (x *InNet) climb(sw int, bytes int, atRoot func(root int)) {
	s := x.sw[sw]
	if s.parent < 0 {
		atRoot(sw)
		return
	}
	x.eng.At(x.eng.Now()+x.hop(x.ctrl+bytes), func() { x.climb(s.parent, bytes, atRoot) })
}

// AllReduce is the in-network plane's flagship: reduce up, multicast
// the total down, every rank gets the global sum with one injection
// and one delivery.
func (x *InNet) AllReduce(p *sim.Proc, rank int, v int64) (int64, error) {
	start := x.eng.Now()
	st := x.rs[rank]
	epoch := st.redEpoch
	st.redEpoch++
	x.inject(p, rank, x.c.cfg.ElemBytes, func(sw int) {
		x.reduceUp(sw, epoch, v, func(root int, total int64) {
			rel := x.startRelease("allreduce")
			x.multicast(root, x.c.cfg.ElemBytes, rel, func(r int) {
				rs := x.rs[r]
				rs.redGot[epoch] = total
				rs.sig.Broadcast()
			})
		})
	})
	for {
		if total, ok := st.redGot[epoch]; ok {
			delete(st.redGot, epoch)
			x.c.eps[rank].ChargeRecv(p, x.c.cfg.ElemBytes)
			x.finish(start)
			return total, nil
		}
		st.sig.Wait(p)
	}
}

// reduceUp accumulates one partial into switch sw for one epoch and
// forwards the subtree total when complete. Event context.
func (x *InNet) reduceUp(sw int, epoch uint64, v int64, atRoot func(root int, total int64)) {
	s := x.sw[sw]
	acc := s.red[epoch]
	if acc == nil {
		acc = &redAcc{}
		s.red[epoch] = acc
	}
	acc.sum += v
	acc.n++
	if acc.n < s.expected {
		return
	}
	total := acc.sum
	delete(s.red, epoch)
	if x.m != nil {
		x.m.combines.Inc()
	}
	if s.parent >= 0 {
		x.eng.At(x.eng.Now()+x.hop(x.ctrl+x.c.cfg.ElemBytes), func() {
			x.reduceUp(s.parent, epoch, total, atRoot)
		})
		return
	}
	atRoot(sw, total)
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
