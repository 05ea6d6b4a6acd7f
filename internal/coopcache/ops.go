package coopcache

import (
	"errors"
	"sort"

	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/trace"
)

// ---- server side ----

func (s *server) register() {
	s.ep.Register(hRead, s.onRead)
	s.ep.Register(hEvict, s.onEvict)
	s.ep.Register(hWrite, s.onWrite)
}

// onRead decides how a client miss is served: forward to a caching
// client, serve from server memory, or read the disk. The requesting
// client is added to the directory optimistically — it will cache the
// block as soon as it gets it.
func (s *server) onRead(p *sim.Proc, m am.Msg) (any, int) {
	blk := m.Arg.(BlockID)
	requester := int(m.Src) - 1
	otherHolders := 0
	for h := range s.dir[blk] {
		if h != requester {
			otherHolders++
		}
	}
	if s.sys.cfg.Policy != ClientServer && otherHolders > 0 {
		// Deterministic choice: lowest-index holder.
		best := -1
		for h := range s.dir[blk] {
			if h != requester && (best < 0 || h < best) {
				best = h
			}
		}
		s.addHolder(blk, requester)
		return readReply{forwardTo: best}, 16
	}
	if _, ok := s.cache.Get(blk); ok {
		s.addHolder(blk, requester)
		return readReply{forwardTo: -1, singletHint: otherHolders == 0}, s.sys.cfg.BlockBytes
	}
	// Disk read; the block enters the server cache.
	s.ep.Node().Disk.Read(p, diskOffset(blk, s.sys.cfg.BlockBytes), s.sys.cfg.BlockBytes)
	s.cache.Put(blk, struct{}{})
	s.addHolder(blk, requester)
	return readReply{forwardTo: -1, fromDisk: true, singletHint: otherHolders == 0}, s.sys.cfg.BlockBytes
}

// onEvict handles a client's asynchronous eviction notice: drop the
// evictor from the directory and, if the copy was recirculated onward,
// record its new home.
func (s *server) onEvict(p *sim.Proc, m am.Msg) (any, int) {
	n := m.Arg.(evictNotice)
	s.removeHolder(n.blk, int(m.Src)-1)
	if n.movedTo >= 0 && n.movedTo < s.sys.cfg.Clients {
		s.addHolder(n.blk, n.movedTo)
	}
	return nil, 0
}

// onWrite applies a write-through: store to disk, refresh the server
// cache, and invalidate every other cached copy.
func (s *server) onWrite(p *sim.Proc, m am.Msg) (any, int) {
	blk := m.Arg.(BlockID)
	writer := int(m.Src) - 1
	s.ep.Node().Disk.Write(p, diskOffset(blk, s.sys.cfg.BlockBytes), s.sys.cfg.BlockBytes)
	s.cache.Put(blk, struct{}{})
	holders := make([]int, 0, len(s.dir[blk]))
	for h := range s.dir[blk] {
		if h != writer {
			holders = append(holders, h)
		}
	}
	sort.Ints(holders) // deterministic invalidation order
	for _, h := range holders {
		_ = s.ep.Send(p, s.sys.clients[h].ep.ID(), hInval, blk, 16)
		delete(s.dir[blk], h)
	}
	s.addHolder(blk, writer)
	return nil, 0
}

func (s *server) addHolder(blk BlockID, c int) {
	hs := s.dir[blk]
	if hs == nil {
		hs = make(map[int]struct{})
		s.dir[blk] = hs
	}
	hs[c] = struct{}{}
}

func (s *server) removeHolder(blk BlockID, c int) {
	if hs, ok := s.dir[blk]; ok {
		delete(hs, c)
		if len(hs) == 0 {
			delete(s.dir, blk)
		}
	}
}

// ---- client side ----

type evictNotice struct {
	blk    BlockID
	recirc int
	// movedTo names the peer the evictor recirculated the block to
	// (N-chance), or -1 when the copy simply died.
	movedTo int
}

type recircArgs struct {
	blk    BlockID
	recirc int
}

func (c *client) register() {
	c.ep.Register(hFetch, c.onFetch)
	c.ep.Register(hRecirc, c.onRecirc)
	c.ep.Register(hInval, c.onInval)
}

// onFetch serves a peer's forwarded read from this client's cache.
func (c *client) onFetch(p *sim.Proc, m am.Msg) (any, int) {
	blk := m.Arg.(BlockID)
	if _, ok := c.cache.Get(blk); !ok {
		return false, 8 // raced an eviction; requester falls back
	}
	// Memory copy out of the cache.
	c.ep.Node().CPU.Compute(p, c.sys.cfg.LocalCopy)
	return true, c.sys.cfg.BlockBytes
}

// onRecirc accepts a recirculated singlet into this client's cache.
func (c *client) onRecirc(p *sim.Proc, m am.Msg) (any, int) {
	args := m.Arg.(recircArgs)
	c.insert(p, args.blk, args.recirc, true)
	return nil, 0
}

// onInval drops an invalidated copy.
func (c *client) onInval(p *sim.Proc, m am.Msg) (any, int) {
	c.cache.Remove(m.Arg.(BlockID))
	return nil, 0
}

// insert caches blk, handling the eviction it may cause. Coordination
// is asynchronous and off the read's critical path — the overhead the
// study accounts for is the traffic, not a blocking round trip:
//
//   - client/server: evictions are silent (the baseline maintains no
//     directory; stale entries only cause harmless extra invalidations);
//   - greedy: a one-way eviction notice keeps the directory accurate;
//   - n-chance: a victim whose hint says it is the last cached copy is
//     forwarded directly to a random peer (up to NChance times), and
//     the notice tells the server where it went.
func (c *client) insert(p *sim.Proc, blk BlockID, recirc int, maybeSinglet bool) {
	vKey, vVal, evicted := c.cache.Put(blk, &cachedBlock{recirc: recirc, maybeSinglet: maybeSinglet})
	if !evicted {
		return
	}
	if c.sys.cfg.Policy == ClientServer {
		return
	}
	movedTo := -1
	if c.sys.cfg.Policy == NChance && vVal.maybeSinglet &&
		vVal.recirc < c.sys.cfg.NChance && c.sys.cfg.Clients > 1 {
		t := c.sys.eng.Rand().Intn(c.sys.cfg.Clients - 1)
		if t >= c.idx {
			t++
		}
		movedTo = t
		c.sys.st.Recirculations++
		c.ep.SendAsync(p, c.sys.clients[t].ep.ID(), hRecirc,
			recircArgs{blk: vKey, recirc: vVal.recirc + 1}, c.sys.cfg.BlockBytes)
	}
	c.sys.st.EvictionNotices++
	c.ep.SendAsync(p, c.sys.server.ep.ID(), hEvict,
		evictNotice{blk: vKey, recirc: vVal.recirc, movedTo: movedTo}, 24)
}

// Read performs one application read of blk at this client, blocking p
// for the full service time. It returns where the block was found.
func (c *client) Read(p *sim.Proc, blk BlockID) {
	start := p.Now()
	c.sys.st.Reads++
	defer func() {
		c.sys.resp = append(c.sys.resp, p.Now()-start)
		if m := c.sys.m; m != nil {
			m.readNs.Observe(int64(p.Now() - start))
		}
	}()
	if _, ok := c.cache.Get(blk); ok {
		c.sys.st.LocalHits++
		c.ep.Node().CPU.Compute(p, c.sys.cfg.LocalCopy)
		return
	}
	reply, err := c.ep.Call(p, c.sys.server.ep.ID(), hRead, blk, 32)
	if err != nil {
		return
	}
	rr := reply.(readReply)
	if rr.forwardTo >= 0 {
		peer := c.sys.clients[rr.forwardTo]
		got, err := c.ep.Call(p, peer.ep.ID(), hFetch, blk, 32)
		if err == nil && got == true {
			c.sys.st.RemoteHits++
			c.insert(p, blk, 0, false) // the peer also holds a copy
			return
		}
		// Raced eviction: retry at the server, which now reads disk or
		// serves from its own cache.
		reply, err = c.ep.Call(p, c.sys.server.ep.ID(), hRead, blk, 32)
		if err != nil {
			return
		}
		rr = reply.(readReply)
		if rr.forwardTo >= 0 {
			// Directory healed meanwhile; treat as a remote hit without
			// a third hop to bound worst-case latency.
			c.sys.st.RemoteHits++
			c.insert(p, blk, 0, false)
			return
		}
	}
	if rr.fromDisk {
		c.sys.st.DiskReads++
	} else {
		c.sys.st.ServerMemHits++
	}
	c.insert(p, blk, 0, rr.singletHint)
}

// Write performs one application write: write-through to the server.
func (c *client) Write(p *sim.Proc, blk BlockID) {
	c.sys.st.Writes++
	_, _ = c.ep.Call(p, c.sys.server.ep.ID(), hWrite, blk, c.sys.cfg.BlockBytes)
	c.insert(p, blk, 0, true) // write-through invalidated everyone else
}

func diskOffset(blk BlockID, blockBytes int) int64 {
	return (int64(blk.File)<<20 | int64(blk.Block)) * int64(blockBytes)
}

// RunTrace drives the whole system with a file-access trace. The trace
// is applied in order; each access runs to completion before the next
// starts (the study's trace-driven methodology). The engine is left
// reusable, so callers can warm caches with one trace segment and
// measure another.
func RunTrace(e *sim.Engine, sys *System, accesses []trace.FileAccess) error {
	done := false
	e.Spawn("trace-driver", func(p *sim.Proc) {
		for _, a := range accesses {
			c := sys.clients[a.Client]
			blk := BlockID{File: a.File, Block: a.Block}
			if a.Write {
				c.Write(p, blk)
			} else {
				c.Read(p, blk)
			}
		}
		done = true
	})
	if err := e.RunUntil(sim.MaxTime); err != nil {
		return err
	}
	if !done {
		return errors.New("coopcache: trace driver stalled")
	}
	return nil
}
