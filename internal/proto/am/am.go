// Package am implements Active Messages, the lean communication layer
// at the heart of the NOW prototype (von Eicken et al., and Martin's
// HPAM port to HP workstations over Medusa FDDI).
//
// The design follows the paper's definitions exactly: *overhead* is CPU
// time spent by the processor preparing to send or receive (charged to
// the node's CPU, where it contends with everything else running there),
// while *latency* and serialization live in the fabric. An active
// message names a handler on the destination; the handler runs when the
// receiving endpoint's dispatcher drains it and may return a reply,
// which doubles as the acknowledgement.
//
// Reliability is the paper's "message loss as an infrequent case":
// sequence numbers, sender-side timeout and retry, and receiver-side
// duplicate suppression with cached replies, so a retried
// non-idempotent request is answered from the cache instead of
// re-executed. The bookkeeping is the at-most-once ledger (Caller and
// Callee), which the federation's WAN gateways share; each transport
// keeps its own wire, timers and retry policy. The ledger's one
// precondition is FIFO delivery per (src, dst) pair: a watermark passes
// a call only once it is settled, after its last copy was queued, so no
// copy of a call below a request's watermark arrives after it.
//
// Receive buffering is finite; arrivals beyond the buffer are dropped
// and recovered by retry — the exact failure mode that makes the Column
// benchmark collapse without coscheduling (Figure 4).
package am

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/sim"
)

// HandlerID names a registered handler on an endpoint.
type HandlerID int

// Msg is what a handler receives.
type Msg struct {
	// Src is the requesting node.
	Src netsim.NodeID
	// Arg is the request argument (simulated payload, by reference).
	Arg any
	// Bytes is the payload size carried on the wire.
	Bytes int
}

// Handler processes a request and returns the reply value and its
// payload size in bytes (0 for a bare acknowledgement). Handlers run in
// the endpoint's dispatcher process and may perform further blocking
// simulation operations (disk I/O, nested calls on *other* endpoints).
type Handler func(p *sim.Proc, m Msg) (reply any, replyBytes int)

// ErrTimeout is returned when a message exhausted its retries without an
// acknowledgement (destination crashed or detached).
var ErrTimeout = errors.New("am: request timed out")

// Config sets the endpoint's cost and reliability parameters.
type Config struct {
	// SendOverhead is the CPU time charged at the sender per message.
	SendOverhead sim.Duration
	// RecvOverhead is the CPU time charged at the receiver per message.
	RecvOverhead sim.Duration
	// SendPerByte and RecvPerByte charge copy costs proportional to the
	// payload — zero for true user-level Active Messages (data moves by
	// DMA from user buffers), nonzero for the kernel-stack baselines
	// (package kstack) built on this same endpoint machinery, where
	// every byte crosses the kernel once or twice.
	SendPerByte sim.Duration
	RecvPerByte sim.Duration
	// HeaderBytes is added to every packet on the wire.
	HeaderBytes int
	// BufferSlots bounds the receive queue; excess arrivals are dropped.
	BufferSlots int
	// RetryTimeout is how long a sender waits before retransmitting.
	RetryTimeout sim.Duration
	// MaxRetries bounds retransmissions before ErrTimeout.
	MaxRetries int
	// Window bounds outstanding asynchronous sends per destination.
	Window int
	// Class is the CPU scheduling class charged for protocol processing
	// ("" = system class, always schedulable).
	Class string
	// Port is the endpoint's address on its node; distinct subsystems or
	// jobs sharing a node use distinct ports. Port 0 is the default.
	Port int
}

// DefaultConfig is the NOW target: user-level network access with a
// handful of microseconds of overhead per side, aiming at the paper's
// 10 µs user-to-user goal on a Myrinet-class fabric.
func DefaultConfig() Config {
	return Config{
		SendOverhead: 3 * sim.Microsecond,
		RecvOverhead: 3 * sim.Microsecond,
		HeaderBytes:  32,
		BufferSlots:  64,
		RetryTimeout: 1 * sim.Millisecond,
		MaxRetries:   10,
		Window:       16,
	}
}

// HPAMConfig reproduces Martin's HPAM prototype on Medusa FDDI: 8 µs of
// processor overhead per side including timeout and retry support.
func HPAMConfig() Config {
	cfg := DefaultConfig()
	cfg.SendOverhead = 8 * sim.Microsecond
	cfg.RecvOverhead = 8 * sim.Microsecond
	return cfg
}

// CM5Config reproduces the CM-5 figures the paper cites: roughly 50
// cycles ≈ 1.7 µs of overhead for sending and handling a small message.
func CM5Config() Config {
	cfg := DefaultConfig()
	cfg.SendOverhead = 1700 * sim.Nanosecond
	cfg.RecvOverhead = 1700 * sim.Nanosecond
	return cfg
}

// completionTimeout bounds how long an acknowledged request may wait
// for its reply. Retransmission stops once the destination's transport
// ack arrives (the handler may legitimately take a long time — a disk
// read, a rebuild); if the reply still has not arrived after this
// deadline the destination is presumed to have crashed mid-request.
const completionTimeout = 10 * sim.Second

type pktKind uint8

const (
	kindRequest pktKind = iota + 1
	kindReply
	// kindAck is the transport-level receipt: it stops the sender's
	// retransmission timer without completing the call.
	kindAck
)

// wire is the fabric payload for an AM packet.
type wire struct {
	kind      pktKind
	seq       uint64
	handler   HandlerID
	arg       any
	bytes     int
	watermark uint64 // requests only: Caller.Watermark towards the receiver
}

type pending struct {
	pkt      *netsim.Packet
	seq      uint64
	dst      netsim.NodeID
	retries  int
	timer    sim.Timer
	done     *sim.Signal // nil for asynchronous sends
	reply    any
	failed   bool
	finished bool
	acked    bool
	async    bool
}

// Stats counts endpoint activity.
type Stats struct {
	Sent       int64 // requests transmitted (excluding retries)
	Retries    int64
	Replies    int64 // replies transmitted
	Handled    int64 // handler executions (deduplicated)
	Duplicates int64 // suppressed duplicate requests
	Overflows  int64 // arrivals dropped for lack of buffer slots
	Failures   int64 // sends abandoned after MaxRetries
}

// Endpoint is one node's attachment to the Active Message layer.
type Endpoint struct {
	cfg      Config
	eng      *sim.Engine
	node     *node.Node
	fab      *netsim.Fabric
	id       netsim.NodeID
	handlers map[HandlerID]handler

	tx *sim.Mailbox[*netsim.Packet]
	rq *sim.Mailbox[*netsim.Packet]

	// calls and dedup are this endpoint's halves of the at-most-once
	// ledger: the sends it has in flight, and the requests it serves.
	calls Caller[netsim.NodeID, *pending]
	dedup Callee[netsim.NodeID]
	// outstanding counts asynchronous sends only: synchronous Calls are
	// bounded by their callers blocking, and including them in the
	// window would deadlock a handler that Flushes while its own
	// request's reply is pending.
	outstanding map[netsim.NodeID]int
	unflushed   int // sum of outstanding
	windowSig   *sim.Signal

	stats    Stats
	detached bool
}

// NewEndpoint attaches node n to the fabric with the given config and
// starts its transmit and dispatch processes.
func NewEndpoint(e *sim.Engine, n *node.Node, fab *netsim.Fabric, cfg Config) *Endpoint {
	if cfg.BufferSlots <= 0 {
		cfg.BufferSlots = 64
	}
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = sim.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 10
	}
	ep := &Endpoint{
		cfg:         cfg,
		eng:         e,
		node:        n,
		fab:         fab,
		id:          n.ID(),
		handlers:    make(map[HandlerID]handler),
		tx:          sim.NewMailbox[*netsim.Packet](e, fmt.Sprintf("am%d/tx", n.ID())),
		rq:          sim.NewMailbox[*netsim.Packet](e, fmt.Sprintf("am%d/rq", n.ID())),
		outstanding: make(map[netsim.NodeID]int),
		windowSig:   sim.NewSignal(e, fmt.Sprintf("am%d/window", n.ID())),
	}
	fab.SetDeliveryPort(ep.id, cfg.Port, ep.deliver)
	e.Spawn(fmt.Sprintf("am%d/txproc", n.ID()), ep.txLoop)
	e.Spawn(fmt.Sprintf("am%d/dispatch", n.ID()), ep.dispatch)
	return ep
}

// Node returns the endpoint's host.
func (ep *Endpoint) Node() *node.Node { return ep.node }

// ID returns the endpoint's fabric address.
func (ep *Endpoint) ID() netsim.NodeID { return ep.id }

// Config returns the endpoint's configuration.
func (ep *Endpoint) Config() Config { return ep.cfg }

// Fabric returns the fabric the endpoint is bound to. Protocol layers
// that bypass the AM reliability machinery (the in-network collective
// plane) use it to reach the topology and charge link occupancy with
// the endpoint's cost model.
func (ep *Endpoint) Fabric() *netsim.Fabric { return ep.fab }

// ChargeSend charges the per-message sender CPU cost (o + bytes*G_cpu)
// without queueing a packet. Used by layers that model their own wire
// path but keep the endpoint's LogP overhead accounting.
func (ep *Endpoint) ChargeSend(p *sim.Proc, payloadBytes int) {
	ep.chargeCPU(p, ep.cfg.SendOverhead+sim.Duration(payloadBytes)*ep.cfg.SendPerByte)
}

// ChargeRecv is ChargeSend's receive-side counterpart.
func (ep *Endpoint) ChargeRecv(p *sim.Proc, payloadBytes int) {
	ep.chargeCPU(p, ep.cfg.RecvOverhead+sim.Duration(payloadBytes)*ep.cfg.RecvPerByte)
}

// handler is a registered Handler with the name its worker processes
// run under, formatted once here rather than per request.
type handler struct {
	fn   Handler
	name string
}

// Register installs h for id. Re-registering replaces the handler.
func (ep *Endpoint) Register(id HandlerID, h Handler) {
	ep.handlers[id] = handler{fn: h, name: fmt.Sprintf("am%d/h%d", ep.id, id)}
}

// Detach disconnects the endpoint (simulating a crashed node): incoming
// packets vanish, nothing is transmitted, and every outstanding send
// fails immediately — callers blocked in Call or Flush unwedge with
// errors instead of waiting on a wire that no longer exists. Peers
// observe ErrTimeout.
func (ep *Endpoint) Detach() {
	ep.detached = true
	ep.fab.SetDeliveryPort(ep.id, ep.cfg.Port, nil)
	for _, pd := range ep.calls.Unsettled() {
		ep.complete(pd, nil, true)
	}
}

// Reattach reconnects a detached endpoint — a crashed node rebooting
// and rejoining the fabric. Delivery resumes and new sends transmit
// again. State that died with the node stays dead: pending sends were
// already failed by Detach, and the sequence counter continues from
// where it left off, so peers' duplicate-suppression caches remain
// correct across the outage.
func (ep *Endpoint) Reattach() {
	if !ep.detached {
		return
	}
	ep.detached = false
	ep.fab.SetDeliveryPort(ep.id, ep.cfg.Port, ep.deliver)
}

// Stats returns a snapshot of counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// Call sends a request to handler h on dst carrying arg/payloadBytes and
// blocks until the reply arrives, retrying on loss. It returns the
// handler's reply value.
func (ep *Endpoint) Call(p *sim.Proc, dst netsim.NodeID, h HandlerID, arg any, payloadBytes int) (any, error) {
	pd := ep.post(p, dst, h, arg, payloadBytes, false)
	for !pd.finished {
		pd.done.Wait(p)
	}
	if pd.failed {
		return nil, fmt.Errorf("am: call to node %d handler %d: %w", dst, h, ErrTimeout)
	}
	return pd.reply, nil
}

// Send is a reliable one-way message: it blocks until the destination
// acknowledges (the handler's nil reply). Use SendAsync for pipelined
// streams.
func (ep *Endpoint) Send(p *sim.Proc, dst netsim.NodeID, h HandlerID, arg any, payloadBytes int) error {
	_, err := ep.Call(p, dst, h, arg, payloadBytes)
	return err
}

// SendAsync posts a one-way message and returns once it is accepted into
// the per-destination window, blocking only when Window sends are
// already outstanding to dst. Losses are retried in the background;
// permanently failed sends are counted in Stats().Failures.
func (ep *Endpoint) SendAsync(p *sim.Proc, dst netsim.NodeID, h HandlerID, arg any, payloadBytes int) {
	for ep.outstanding[dst] >= ep.cfg.Window {
		ep.windowSig.Wait(p)
	}
	ep.post(p, dst, h, arg, payloadBytes, true)
}

// Flush blocks until every asynchronous send to every destination has
// been acknowledged or abandoned.
func (ep *Endpoint) Flush(p *sim.Proc) {
	for ep.unflushed > 0 {
		ep.windowSig.Wait(p)
	}
}

// post charges send overhead, registers the pending entry, and hands the
// packet to the transmit process.
func (ep *Endpoint) post(p *sim.Proc, dst netsim.NodeID, h HandlerID, arg any, payloadBytes int, async bool) *pending {
	if ep.detached {
		// A crashed host cannot send: fail synchronously.
		ep.stats.Failures++
		return &pending{dst: dst, async: async, finished: true, failed: true}
	}
	ep.ChargeSend(p, payloadBytes)
	pd := &pending{dst: dst, async: async}
	pd.seq = ep.calls.Open(dst, pd)
	pd.pkt = &netsim.Packet{
		Src:     ep.id,
		SrcPort: ep.cfg.Port,
		Dst:     dst,
		Port:    ep.cfg.Port,
		Bytes:   payloadBytes + ep.cfg.HeaderBytes,
		Payload: &wire{
			kind:      kindRequest,
			seq:       pd.seq,
			handler:   h,
			arg:       arg,
			bytes:     payloadBytes,
			watermark: ep.calls.Watermark(dst),
		},
	}
	if async {
		ep.outstanding[dst]++
		ep.unflushed++
	} else {
		pd.done = sim.NewSignal(ep.eng, "am/call")
	}
	ep.stats.Sent++
	ep.tx.Put(pd.pkt)
	pd.timer = ep.eng.After(ep.timeoutFor(pd.pkt), func() { ep.onTimeout(pd) })
	return pd
}

func (ep *Endpoint) onTimeout(pd *pending) {
	if pd.finished {
		return
	}
	if ep.detached {
		ep.complete(pd, nil, true)
		return
	}
	if pd.acked {
		// Acknowledged but unanswered within the completion window: the
		// reply may have been lost, or the destination crashed. Fall back
		// to probing — a duplicate request is re-acked while the handler
		// runs and re-answered from the reply cache once it finishes, so
		// a live destination always converges. Only a dead one exhausts
		// the retry budget (acks reset it, see onAck).
		pd.acked = false
	}
	if pd.retries >= ep.cfg.MaxRetries {
		ep.complete(pd, nil, true)
		return
	}
	pd.retries++
	ep.stats.Retries++
	ep.tx.Put(pd.pkt)
	// Exponential backoff: under congestion (incast at the receiver's
	// link) the first timeout estimate is wrong by the backlog's depth;
	// doubling keeps retransmissions from feeding the collapse they are
	// reacting to.
	backoff := uint(pd.retries)
	if backoff > 6 {
		backoff = 6
	}
	pd.timer = ep.eng.After(ep.timeoutFor(pd.pkt)<<backoff, func() { ep.onTimeout(pd) })
}

// onAck switches a pending send from retransmission mode to the (much
// longer) completion deadline.
func (ep *Endpoint) onAck(seq uint64) {
	pd, ok := ep.calls.Get(seq)
	if !ok || pd.finished || pd.acked {
		return
	}
	pd.acked = true
	pd.retries = 0 // a live destination refreshes the retry budget
	pd.timer.Stop()
	pd.timer = ep.eng.After(completionTimeout, func() { ep.onTimeout(pd) })
}

// timeoutFor sizes the retransmission timer to the message: the base
// timeout plus enough round-trip serialization slack that a large bulk
// transfer (or one queued behind a full window of them) is not declared
// lost while it is still streaming onto the wire.
func (ep *Endpoint) timeoutFor(pkt *netsim.Packet) sim.Duration {
	ser := ep.fab.SerializationTime(pkt.Bytes)
	return ep.cfg.RetryTimeout + 2*ser*sim.Duration(ep.cfg.Window+1)
}

// complete finishes a pending send: failure or reply.
func (ep *Endpoint) complete(pd *pending, reply any, failed bool) {
	if pd.finished {
		return
	}
	pd.finished = true
	pd.reply = reply
	pd.failed = failed
	pd.timer.Stop()
	ep.calls.Settle(pd.seq)
	if pd.async {
		ep.outstanding[pd.dst]--
		ep.unflushed--
	}
	if failed {
		ep.stats.Failures++
	}
	if pd.done != nil {
		pd.done.Broadcast()
	}
	ep.windowSig.Broadcast()
}

// chargeCPU accounts protocol processing time. System endpoints (empty
// Class) run in interrupt context — they must not queue behind a guest
// job's timeslice, or acks stall and retransmission storms follow.
// Job-classed endpoints model user-level libraries polled by the
// application: their processing competes under the local scheduler,
// which is exactly the Figure 4 effect.
func (ep *Endpoint) chargeCPU(p *sim.Proc, d sim.Duration) {
	if ep.cfg.Class == "" {
		ep.node.CPU.ComputeSystem(p, d)
		return
	}
	ep.node.CPU.ComputeAs(p, ep.cfg.Class, d)
}

// txLoop drains the transmit queue onto the fabric, serialising packets
// on the node's link like a NIC DMA engine.
func (ep *Endpoint) txLoop(p *sim.Proc) {
	for {
		pkt := ep.tx.Get(p)
		if ep.detached {
			ep.fab.FreePacket(pkt) // recycles pooled acks/replies; no-op on requests
			continue
		}
		ep.fab.Send(p, pkt)
	}
}

// deliver runs at packet arrival (fabric event context): bound buffering
// then hand to the dispatcher.
func (ep *Endpoint) deliver(pkt *netsim.Packet) {
	if ep.detached {
		ep.fab.FreePacket(pkt)
		return
	}
	if ep.rq.Len() >= ep.cfg.BufferSlots {
		ep.stats.Overflows++
		ep.fab.FreePacket(pkt)
		return
	}
	ep.rq.Put(pkt)
}

// dispatch drains arrivals: charges receive overhead, deduplicates, runs
// handlers, and transmits replies.
func (ep *Endpoint) dispatch(p *sim.Proc) {
	for {
		pkt := ep.rq.Get(p)
		w, ok := pkt.Payload.(*wire)
		if !ok {
			ep.fab.FreePacket(pkt)
			continue
		}
		ep.ChargeRecv(p, w.bytes)
		switch w.kind {
		case kindRequest:
			// Transport receipt first: the sender stops retransmitting
			// while the handler (possibly a long disk operation) runs.
			ep.putPooled(pkt.Src, pkt.SrcPort, &wire{kind: kindAck, seq: w.seq})
			// Request packets are never pooled: the sender retains them
			// for retransmission, so there is nothing to recycle here.
			ep.handleRequest(p, pkt, w)
		case kindReply:
			if pd, ok := ep.calls.Get(w.seq); ok {
				ep.complete(pd, w.arg, false)
			}
			// Unknown seq: a duplicate reply for a call that already
			// completed — drop it.
			ep.fab.FreePacket(pkt)
		case kindAck:
			ep.onAck(w.seq)
			ep.fab.FreePacket(pkt)
		}
	}
}

// handleRequest deduplicates and launches the handler. Handlers run in
// their own worker process so they may block — nested calls, disk I/O —
// without stalling this endpoint's dispatcher (which must keep matching
// replies for exactly that kind of nested call).
func (ep *Endpoint) handleRequest(p *sim.Proc, pkt *netsim.Packet, w *wire) {
	src := pkt.Src
	if v, reply, bytes := ep.dedup.Admit(src, w.seq, w.watermark); v != Execute {
		ep.stats.Duplicates++
		if v == Replay {
			ep.sendReply(p, src, pkt.SrcPort, w.seq, reply, bytes)
		}
		return
	}
	h, ok := ep.handlers[w.handler]
	if !ok {
		h.name = "am/unregistered"
	}
	srcPort := pkt.SrcPort
	ep.eng.Spawn(h.name, func(wp *sim.Proc) {
		var reply any
		replyBytes := 0
		if h.fn != nil {
			reply, replyBytes = h.fn(wp, Msg{Src: src, Arg: w.arg, Bytes: w.bytes})
		}
		ep.stats.Handled++
		ep.dedup.Finish(src, w.seq, reply, replyBytes)
		ep.sendReply(wp, src, srcPort, w.seq, reply, replyBytes)
	})
}

func (ep *Endpoint) sendReply(p *sim.Proc, dst netsim.NodeID, srcPort int, seq uint64, val any, bytes int) {
	ep.ChargeSend(p, bytes)
	ep.stats.Replies++
	ep.putPooled(dst, srcPort, &wire{kind: kindReply, seq: seq, arg: val, bytes: bytes})
}

// putPooled queues an ack or a reply. Both are single-shot — a
// duplicate request gets fresh ones — so the packet comes from the
// fabric pool and the receiving dispatcher recycles it.
func (ep *Endpoint) putPooled(dst netsim.NodeID, port int, w *wire) {
	pkt := ep.fab.NewPacket()
	pkt.Src, pkt.SrcPort, pkt.Dst, pkt.Port = ep.id, ep.cfg.Port, dst, port
	pkt.Bytes = w.bytes + ep.cfg.HeaderBytes
	pkt.Payload = w
	ep.tx.Put(pkt)
}
