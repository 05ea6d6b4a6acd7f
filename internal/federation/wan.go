// The wide-area fabric between clusters, and the WAN "active message"
// endpoint each cluster's gateway speaks over it.
//
// A WANFabric is not a netsim.Fabric: there are no per-node links, no
// switch, no shared medium — just one directed pipe per cluster pair
// with ms-class latency, low bandwidth and (optionally) asymmetric
// numbers per direction. Determinism splits at the pipe exactly like
// netsim's sharded handoff: the SOURCE partition owns the pipe's
// transmit horizon and every RNG draw (loss), so all mutation happens
// in the source engine's event stream; the destination receives a
// fully-priced arrival time through sim.ShardedEngine.Send, which is
// legal because every link's latency is at least the engine's
// conservative window (New picks the window as the minimum latency).
//
// On top of the pipes, Gateway gives each cluster two primitives:
//
//   - Cast: one-way datagram (gossip, spilled jobs). Pure horizon
//     arithmetic plus a cross-shard send — callable from any event or
//     process on the cluster's engine, no blocking.
//   - Call: blocking RPC with per-attempt timeout, doubling backoff and
//     at-most-once execution kept by Active Messages' own ledger
//     (am.Caller, am.Callee), whose FIFO precondition each pipe meets.
//     Handlers run in a spawned process on the destination engine, so
//     they may block on local xfs reads or further WAN calls.
package federation

import (
	"fmt"

	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// Link prices one direction of a cluster pair.
type Link struct {
	Latency       sim.Duration // one-way propagation
	BandwidthMbps float64      // directed pipe bit rate
	LossProb      float64      // per-message drop probability
}

// WANConfig shapes the wide-area fabric. Every directed pair gets the
// default numbers unless Links overrides it; [2]int{src, dst} keys the
// override for the src→dst direction only, which is how asymmetric
// (e.g. fat-down/thin-up) pairs are expressed.
type WANConfig struct {
	Latency       sim.Duration
	BandwidthMbps float64
	LossProb      float64
	// CallRetries caps RPC attempts (default 4). Each attempt waits
	// 2×RTT + both directions' serialization + 1ms grace, doubled per
	// retry.
	CallRetries int
	Links       map[[2]int]Link
}

// DefaultWANConfig is a building-to-building metro link: 5 ms one way,
// 45 Mb/s (a T3), lossless.
func DefaultWANConfig() WANConfig {
	return WANConfig{Latency: 5 * sim.Millisecond, BandwidthMbps: 45}
}

func (w WANConfig) link(src, dst int) Link {
	l := Link{Latency: w.Latency, BandwidthMbps: w.BandwidthMbps, LossProb: w.LossProb}
	if o, ok := w.Links[[2]int{src, dst}]; ok {
		if o.Latency > 0 {
			l.Latency = o.Latency
		}
		if o.BandwidthMbps > 0 {
			l.BandwidthMbps = o.BandwidthMbps
		}
		if o.LossProb > 0 {
			l.LossProb = o.LossProb
		}
	}
	return l
}

// wanLink is the runtime state of one directed pipe. txFree is owned by
// the source partition's engine and never read elsewhere.
type wanLink struct {
	Link
	txFree sim.Time
}

// WANFabric connects the federation's clusters pairwise.
type WANFabric struct {
	se    *sim.ShardedEngine
	links [][]*wanLink // [src][dst], nil on the diagonal
}

func newWANFabric(se *sim.ShardedEngine, cfg WANConfig, n int) *WANFabric {
	f := &WANFabric{se: se, links: make([][]*wanLink, n)}
	for s := 0; s < n; s++ {
		f.links[s] = make([]*wanLink, n)
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			f.links[s][d] = &wanLink{Link: cfg.link(s, d)}
		}
	}
	return f
}

// Ser returns the serialization time of n bytes on the src→dst pipe.
func (f *WANFabric) Ser(src, dst int, n int) sim.Duration {
	return sim.Duration(sim.PerByte(int64(n), sim.Bandwidth(f.links[src][dst].BandwidthMbps)))
}

// RTT returns the propagation round trip of the src↔dst pair.
func (f *WANFabric) RTT(src, dst int) sim.Duration {
	return f.links[src][dst].Latency + f.links[dst][src].Latency
}

// wanMsg crosses partitions by value through ShardMsg.Data. Ownership of
// the payload transfers with the send: the source never touches it
// again.
type wanMsg struct {
	kind      uint8 // mCast | mCall | mReply
	handler   uint8
	src       int
	seq       uint64
	watermark uint64 // calls only: am.Caller.Watermark towards dst
	bytes     int
	payload   any
}

const (
	mCast = iota
	mCall
	mReply
)

// send prices one message on the src→dst pipe and hands it across. It
// runs on src's engine: the bandwidth horizon and the loss draw are
// src-side state. Dropped messages still occupy the pipe (the bits were
// transmitted; nobody heard them).
func (f *WANFabric) send(src, dst int, eng *sim.Engine, reg wanMetrics, m *wanMsg) {
	lk := f.links[src][dst]
	now := eng.Now()
	start := now
	if lk.txFree > start {
		start = lk.txFree
	}
	ser := f.Ser(src, dst, m.bytes)
	lk.txFree = start + sim.Time(ser)
	reg.sent.Inc()
	reg.bytes.Add(int64(m.bytes))
	if lk.LossProb > 0 && eng.Rand().Float64() < lk.LossProb {
		reg.drops.Inc()
		return
	}
	arrive := start + sim.Time(ser+lk.Latency)
	f.se.Send(src, dst, arrive, m)
}

// wanMetrics are the per-cluster pipe counters (on the cluster's own
// registry; obs.Merged folds them for whole-federation views).
type wanMetrics struct {
	sent, bytes, drops, recv       *obs.Counter
	calls, retries, timeouts, fail *obs.Counter
}

func newWANMetrics(r *obs.Registry) wanMetrics {
	return wanMetrics{
		sent:     r.Counter("wan.sent"),
		bytes:    r.Counter("wan.bytes"),
		drops:    r.Counter("wan.drops"),
		recv:     r.Counter("wan.recv"),
		calls:    r.Counter("wan.calls"),
		retries:  r.Counter("wan.call.retries"),
		timeouts: r.Counter("wan.call.timeouts"),
		fail:     r.Counter("wan.call.fail"),
	}
}

// CastHandler receives a one-way datagram. It runs as a plain event on
// the receiving cluster's engine — no blocking.
type CastHandler func(from int, arg any)

// CallHandler serves an RPC in a spawned process on the receiving
// cluster's engine. It returns the reply payload and its wire size.
type CallHandler func(p *sim.Proc, from int, arg any) (any, int)

type pendingCall struct {
	sig      *sim.Signal
	reply    any
	done     bool
	timedOut bool
}

// wanHdrBytes is the fixed framing charged on every WAN message.
const wanHdrBytes = 64

// Gateway is cluster c's endpoint on the WAN fabric.
type Gateway struct {
	fed     *Federation
	cluster int
	eng     *sim.Engine
	m       wanMetrics

	casts map[uint8]CastHandler
	calls map[uint8]callHandler
	// caller and callee are the gateway's halves of the at-most-once
	// ledger, keyed by peer cluster.
	caller am.Caller[int, *pendingCall]
	callee am.Callee[int]
}

func newGateway(fed *Federation, cluster int, eng *sim.Engine, reg *obs.Registry) *Gateway {
	return &Gateway{
		fed:     fed,
		cluster: cluster,
		eng:     eng,
		m:       newWANMetrics(reg),
		casts:   map[uint8]CastHandler{},
		calls:   map[uint8]callHandler{},
	}
}

// HandleCast registers the one-way handler for id. Call before Run.
func (g *Gateway) HandleCast(id uint8, fn CastHandler) { g.casts[id] = fn }

// callHandler is a registered CallHandler with the name its server
// processes run under, formatted once here rather than per call.
type callHandler struct {
	fn   CallHandler
	name string
}

// HandleCall registers the RPC handler for id. Call before Run.
func (g *Gateway) HandleCall(id uint8, fn CallHandler) {
	g.calls[id] = callHandler{fn: fn, name: fmt.Sprintf("wan.h%02x", id)}
}

// Cast sends a one-way datagram of the given wire size to cluster dst.
// Callable from any event or process on this cluster's engine.
func (g *Gateway) Cast(dst int, id uint8, arg any, bytes int) {
	g.fed.fabric.send(g.cluster, dst, g.eng, g.m, &wanMsg{
		kind: mCast, handler: id, src: g.cluster, bytes: bytes + wanHdrBytes, payload: arg,
	})
}

// Call runs the RPC id(arg) on cluster dst and blocks p until the reply
// arrives or every retry is exhausted. repBytes is the caller's budget
// for the reply's wire size: the per-attempt timeout must cover the
// reply's serialization on a low-bandwidth pipe, or a bulky-but-healthy
// reply (a whole-file lease warmup) would be retried into a queueing
// collapse. At-most-once: retries re-send the same sequence number and
// the destination replays its cached reply rather than re-executing the
// handler.
func (g *Gateway) Call(p *sim.Proc, dst int, id uint8, arg any, bytes, repBytes int) (any, error) {
	g.m.calls.Inc()
	pc := &pendingCall{sig: sim.NewSignal(g.eng, "wan.call")}
	seq := g.caller.Open(dst, pc)
	defer g.caller.Settle(seq)

	timeout := 2*g.fed.fabric.RTT(g.cluster, dst) +
		g.fed.fabric.Ser(g.cluster, dst, bytes+wanHdrBytes) +
		g.fed.fabric.Ser(dst, g.cluster, repBytes+wanHdrBytes) +
		sim.Millisecond
	retries := g.fed.cfg.WAN.CallRetries
	if retries <= 0 {
		retries = 4
	}
	for try := 0; try < retries; try++ {
		if try > 0 {
			g.m.retries.Inc()
		}
		g.fed.fabric.send(g.cluster, dst, g.eng, g.m, &wanMsg{
			kind: mCall, handler: id, src: g.cluster, seq: seq, watermark: g.caller.Watermark(dst),
			bytes: bytes + wanHdrBytes, payload: arg,
		})
		pc.timedOut = false
		tm := g.eng.At(g.eng.Now()+sim.Time(timeout), func() {
			if !pc.done {
				pc.timedOut = true
				pc.sig.Broadcast()
			}
		})
		for !pc.done && !pc.timedOut {
			pc.sig.Wait(p)
		}
		tm.Stop()
		if pc.done {
			return pc.reply, nil
		}
		g.m.timeouts.Inc()
		timeout *= 2
	}
	g.m.fail.Inc()
	return nil, fmt.Errorf("federation: WAN call %d to cluster %d: no reply after %d attempts", id, dst, retries)
}

// deliver injects one arrived message. It runs as an event on this
// cluster's engine (scheduled by the sharded OnDeliver hook).
func (g *Gateway) deliver(m *wanMsg) {
	g.m.recv.Inc()
	switch m.kind {
	case mCast:
		if fn := g.casts[m.handler]; fn != nil {
			fn(m.src, m.payload)
		}
	case mCall:
		g.serve(m)
	case mReply: // a duplicate or abandoned reply finds no waiting call
		if pc, ok := g.caller.Get(m.seq); ok && !pc.done {
			pc.reply, pc.done = m.payload, true
			pc.sig.Broadcast()
		}
	}
}

func (g *Gateway) serve(m *wanMsg) {
	v, res, bytes := g.callee.Admit(m.src, m.seq, m.watermark)
	if v == am.Replay { // lost reply: replay the cached one, charge the wire again
		g.reply(m.src, m.seq, res, bytes)
	}
	if v != am.Execute {
		return
	}
	h := g.calls[m.handler]
	if h.fn == nil {
		g.callee.Finish(m.src, m.seq, nil, 0)
		g.reply(m.src, m.seq, nil, 0)
		return
	}
	g.eng.Spawn(h.name, func(p *sim.Proc) {
		res, bytes := h.fn(p, m.src, m.payload)
		g.callee.Finish(m.src, m.seq, res, bytes)
		g.reply(m.src, m.seq, res, bytes)
	})
}

func (g *Gateway) reply(dst int, seq uint64, payload any, bytes int) {
	g.fed.fabric.send(g.cluster, dst, g.eng, g.m, &wanMsg{
		kind: mReply, src: g.cluster, seq: seq, bytes: bytes + wanHdrBytes, payload: payload,
	})
}
