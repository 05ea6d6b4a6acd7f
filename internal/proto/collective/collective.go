// Package collective layers MPI-style collective operations — barrier,
// broadcast, reduce, all-to-all — over the Active Message endpoints.
// The Cluster Computing White Paper (Baker et al.) identifies this
// layer as what made NOW-class clusters usable for parallel programs;
// here it is the workload that drives the 32→1,024-node scale study
// (experiment SC1).
//
// Topology: ranks are arranged in an implicit k-ary tree in heap
// layout (parent of r is (r-1)/k, children are k·r+1 … k·r+k), so no
// topology state is exchanged and every rank computes its neighbours
// in O(1). Barrier, broadcast and reduce climb or descend this tree;
// all-to-all uses the classic shift schedule (round i: rank r sends to
// (r+i) mod n), which spreads load so no receiver sees more than one
// block per round.
//
// Correctness under the AM layer's retry machinery: requests can be
// retried and delivered in any order, so nothing here assumes FIFO.
// Barrier progress uses fungible credit counters (an arrive credit
// from a child for barrier n cannot be confused with one for n+1,
// because the parent consumes exactly one credit per child per
// barrier and a child cannot enter barrier n+1 before its parent
// released barrier n). Broadcast, reduce and all-to-all tag every
// message with the caller's per-operation epoch and buffer early
// arrivals in per-epoch accumulators.
package collective

import (
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// Config parameterises a communicator.
type Config struct {
	// Arity is the tree fan-out k for barrier/broadcast/reduce.
	// Default 4: on a switched fabric the gather at each parent
	// serialises on its receive link, so moderate fan-out beats both a
	// binary tree (deeper) and a star (incast at the root).
	Arity int
	// Base is the first of the five consecutive AM handler IDs the
	// communicator registers on every endpoint. Default 0x40, clear of
	// the single-digit IDs the experiments use.
	Base am.HandlerID
	// ElemBytes is the wire size of one reduce element. Default 8.
	ElemBytes int
}

// DefaultConfig returns the default communicator parameters.
func DefaultConfig() Config {
	return Config{Arity: 4, Base: 0x40, ElemBytes: 8}
}

// Handler ID offsets from Config.Base.
const (
	hArrive  = 0 // barrier: child→parent arrive credit
	hRelease = 1 // barrier: parent→child release credit
	hBcast   = 2 // broadcast: parent→child value
	hReduce  = 3 // reduce: child→parent partial sum
	hA2A     = 4 // all-to-all: one block
	handlers = 5
)

// bcastMsg carries a broadcast value down the tree.
type bcastMsg struct {
	epoch uint64
	val   any
	bytes int
}

// redMsg carries a subtree's partial sum up the tree.
type redMsg struct {
	epoch uint64
	sum   int64
}

// a2aMsg tags an all-to-all block with its sender's epoch.
type a2aMsg struct {
	epoch uint64
}

// redAcc accumulates one reduce epoch at one rank.
type redAcc struct {
	sum int64
	n   int
}

// rankState is the per-rank collective state touched by handlers and
// by the rank's own operation calls.
type rankState struct {
	arrived  int // barrier credits received from children (fungible)
	released int // barrier credits received from the parent
	barSig   *sim.Signal

	bcastEpoch uint64
	bcast      map[uint64]bcastMsg // early/buffered broadcast values
	bcastSig   *sim.Signal

	redEpoch uint64
	red      map[uint64]*redAcc
	redSig   *sim.Signal

	a2aEpoch uint64
	a2aGot   map[uint64]int // blocks received per epoch
	a2aSig   *sim.Signal
}

// Comm is a communicator binding one AM endpoint per rank. Rank i is
// eps[i]; rank 0 is the root of every tree-shaped operation.
//
// A Comm may be one partition's fragment of a cluster-wide communicator
// (NewPart): it knows every rank's fabric address, but holds endpoints
// and rank state only for the ranks its partition owns. The tree
// arithmetic is identical in every fragment — it depends only on the
// total rank count — and the AM layer routes parent/child messages
// across partitions transparently, so the collective algorithms are
// unchanged.
type Comm struct {
	cfg    Config
	eng    *sim.Engine
	n      int             // total ranks, across all partitions
	nodeOf []netsim.NodeID // rank → fabric address, for all ranks
	eps    []*am.Endpoint  // nil for ranks owned by other partitions
	st     []*rankState    // nil for ranks owned by other partitions
	m      *metrics        // nil unless Instrument attached a registry
}

// New builds a communicator over eps (rank i = eps[i]) and registers
// its handlers on every endpoint. At least two ranks are required.
func New(e *sim.Engine, eps []*am.Endpoint, cfg Config) (*Comm, error) {
	nodeOf := make([]netsim.NodeID, len(eps))
	for i, ep := range eps {
		if ep == nil {
			return nil, fmt.Errorf("collective: rank %d has no endpoint", i)
		}
		nodeOf[i] = ep.ID()
	}
	return NewPart(e, eps, nodeOf, cfg)
}

// NewPart builds one partition's fragment of a cluster-wide
// communicator. nodeOf maps every rank (0..n-1, across all partitions)
// to its fabric address; eps holds the same ranks, with nil for every
// rank another partition owns. Handlers and rank state are created only
// for local ranks, on this partition's engine, and operations
// (Barrier, Broadcast, ...) may only be invoked for local ranks — the
// processes of remote ranks live on other engines and call into their
// own fragments.
func NewPart(e *sim.Engine, eps []*am.Endpoint, nodeOf []netsim.NodeID, cfg Config) (*Comm, error) {
	if len(eps) != len(nodeOf) {
		return nil, fmt.Errorf("collective: %d endpoints for %d ranks", len(eps), len(nodeOf))
	}
	if len(nodeOf) < 2 {
		return nil, fmt.Errorf("collective: %d ranks", len(nodeOf))
	}
	if cfg.Arity <= 0 {
		cfg.Arity = 4
	}
	if cfg.Base == 0 {
		cfg.Base = 0x40
	}
	if cfg.ElemBytes <= 0 {
		cfg.ElemBytes = 8
	}
	c := &Comm{cfg: cfg, eng: e, n: len(nodeOf), nodeOf: nodeOf, eps: eps, st: make([]*rankState, len(eps))}
	for i := range c.st {
		if eps[i] == nil {
			continue
		}
		c.st[i] = &rankState{
			barSig:   sim.NewSignal(e, fmt.Sprintf("coll%d/bar", i)),
			bcast:    make(map[uint64]bcastMsg),
			bcastSig: sim.NewSignal(e, fmt.Sprintf("coll%d/bcast", i)),
			red:      make(map[uint64]*redAcc),
			redSig:   sim.NewSignal(e, fmt.Sprintf("coll%d/red", i)),
			a2aGot:   make(map[uint64]int),
			a2aSig:   sim.NewSignal(e, fmt.Sprintf("coll%d/a2a", i)),
		}
	}
	for i, ep := range eps {
		if ep == nil {
			continue
		}
		st := c.st[i]
		ep.Register(cfg.Base+hArrive, func(p *sim.Proc, m am.Msg) (any, int) {
			st.arrived++
			st.barSig.Broadcast()
			return nil, 0
		})
		ep.Register(cfg.Base+hRelease, func(p *sim.Proc, m am.Msg) (any, int) {
			st.released++
			st.barSig.Broadcast()
			return nil, 0
		})
		ep.Register(cfg.Base+hBcast, func(p *sim.Proc, m am.Msg) (any, int) {
			msg := m.Arg.(bcastMsg)
			st.bcast[msg.epoch] = msg
			st.bcastSig.Broadcast()
			return nil, 0
		})
		ep.Register(cfg.Base+hReduce, func(p *sim.Proc, m am.Msg) (any, int) {
			msg := m.Arg.(redMsg)
			acc := st.red[msg.epoch]
			if acc == nil {
				acc = &redAcc{}
				st.red[msg.epoch] = acc
			}
			acc.sum += msg.sum
			acc.n++
			st.redSig.Broadcast()
			return nil, 0
		})
		ep.Register(cfg.Base+hA2A, func(p *sim.Proc, m am.Msg) (any, int) {
			st.a2aGot[m.Arg.(a2aMsg).epoch]++
			st.a2aSig.Broadcast()
			return nil, 0
		})
	}
	return c, nil
}

// Size returns the number of ranks (across all partitions).
func (c *Comm) Size() int { return c.n }

// parent returns rank r's tree parent (heap layout).
func (c *Comm) parent(r int) int { return (r - 1) / c.cfg.Arity }

// children appends rank r's tree children to dst.
func (c *Comm) children(r int, dst []int) []int {
	first := c.cfg.Arity*r + 1
	for ch := first; ch < first+c.cfg.Arity && ch < c.n; ch++ {
		dst = append(dst, ch)
	}
	return dst
}

// childCount returns the number of tree children of rank r.
func (c *Comm) childCount(r int) int {
	first := c.cfg.Arity*r + 1
	if first >= c.n {
		return 0
	}
	n := c.n - first
	if n > c.cfg.Arity {
		n = c.cfg.Arity
	}
	return n
}

// node maps a rank to its fabric address (works for remote ranks too —
// this is how fragments send to parents and children they do not own).
func (c *Comm) node(r int) netsim.NodeID { return c.nodeOf[r] }

// Barrier blocks the calling rank until every rank has entered the
// barrier. Gather: each rank waits for one arrive credit per child,
// then sends its own credit to its parent. Release: the root, having
// seen the whole tree arrive, sends release credits down; each rank
// forwards to its children as soon as its own release lands. Credits
// are fungible counters, so AM retries and reordering cannot confuse
// consecutive barriers (see the package comment).
func (c *Comm) Barrier(p *sim.Proc, rank int) error {
	start := c.eng.Now()
	st := c.st[rank]
	ep := c.eps[rank]
	nc := c.childCount(rank)
	for st.arrived < nc {
		st.barSig.Wait(p)
	}
	st.arrived -= nc
	if rank != 0 {
		if err := ep.Send(p, c.node(c.parent(rank)), c.cfg.Base+hArrive, nil, 0); err != nil {
			return err
		}
		for st.released < 1 {
			st.barSig.Wait(p)
		}
		st.released--
	}
	var buf [16]int
	for _, ch := range c.children(rank, buf[:0]) {
		if err := ep.Send(p, c.node(ch), c.cfg.Base+hRelease, nil, 0); err != nil {
			return err
		}
	}
	if m := c.m; m != nil {
		m.barriers.Inc()
		m.barrierNs.Observe(int64(c.eng.Now() - start))
	}
	return nil
}

// Broadcast distributes rank 0's value to every rank; every rank
// returns the value. bytes is the payload size charged on the wire
// (only rank 0's value and bytes are used). Values flow down the tree
// tagged with the per-rank broadcast epoch, so a fast subtree one
// operation ahead cannot corrupt a slow one.
func (c *Comm) Broadcast(p *sim.Proc, rank int, val any, bytes int) (any, error) {
	start := c.eng.Now()
	st := c.st[rank]
	epoch := st.bcastEpoch
	st.bcastEpoch++
	if rank != 0 {
		for {
			if msg, ok := st.bcast[epoch]; ok {
				delete(st.bcast, epoch)
				val, bytes = msg.val, msg.bytes
				break
			}
			st.bcastSig.Wait(p)
		}
	}
	ep := c.eps[rank]
	var buf [16]int
	for _, ch := range c.children(rank, buf[:0]) {
		if err := ep.Send(p, c.node(ch), c.cfg.Base+hBcast, bcastMsg{epoch: epoch, val: val, bytes: bytes}, bytes); err != nil {
			return nil, err
		}
	}
	if m := c.m; m != nil {
		m.broadcasts.Inc()
		m.broadcastNs.Observe(int64(c.eng.Now() - start))
	}
	return val, nil
}

// Reduce sums every rank's contribution up the tree. Rank 0 returns
// (total, true); other ranks return (0, false) once their subtree's
// partial sum has been accepted by their parent.
func (c *Comm) Reduce(p *sim.Proc, rank int, v int64) (int64, bool, error) {
	start := c.eng.Now()
	st := c.st[rank]
	epoch := st.redEpoch
	st.redEpoch++
	nc := c.childCount(rank)
	acc := st.red[epoch]
	if acc == nil {
		acc = &redAcc{}
		st.red[epoch] = acc
	}
	acc.sum += v
	for acc.n < nc {
		st.redSig.Wait(p)
	}
	delete(st.red, epoch)
	if m := c.m; m != nil {
		defer func() {
			m.reduces.Inc()
			m.reduceNs.Observe(int64(c.eng.Now() - start))
		}()
	}
	if rank == 0 {
		return acc.sum, true, nil
	}
	err := c.eps[rank].Send(p, c.node(c.parent(rank)), c.cfg.Base+hReduce, redMsg{epoch: epoch, sum: acc.sum}, c.cfg.ElemBytes)
	return 0, false, err
}

// AllToAll exchanges one block of blockBytes between every pair of
// ranks using the pairwise-exchange shift schedule: in round i the
// caller sends to (rank+i) mod n, so each round forms a perfect
// permutation and no receive link sees more than one block per round.
// Each round's send blocks until acknowledged — that per-round
// backpressure is what keeps the schedule in lockstep: posting all
// n-1 blocks asynchronously lets fast ranks race ahead and pile tens
// of concurrent senders onto one receiver, overflowing its finite AM
// buffer and paying the loss-recovery timeout. The call returns when
// the caller's blocks are all acknowledged and its n-1 inbound blocks
// for this epoch have arrived.
func (c *Comm) AllToAll(p *sim.Proc, rank int, blockBytes int) error {
	start := c.eng.Now()
	st := c.st[rank]
	ep := c.eps[rank]
	n := c.n
	epoch := st.a2aEpoch
	st.a2aEpoch++
	msg := a2aMsg{epoch: epoch}
	for i := 1; i < n; i++ {
		if err := ep.Send(p, c.node((rank+i)%n), c.cfg.Base+hA2A, msg, blockBytes); err != nil {
			// Bail before waiting on inbound blocks: the exchange is
			// already broken, and blocks that will never come must not
			// hang the caller.
			return fmt.Errorf("collective: all-to-all rank %d round %d: %w", rank, i, err)
		}
	}
	for st.a2aGot[epoch] < n-1 {
		st.a2aSig.Wait(p)
	}
	delete(st.a2aGot, epoch)
	if m := c.m; m != nil {
		m.allToAlls.Inc()
		m.allToAllNs.Observe(int64(c.eng.Now() - start))
	}
	return nil
}
