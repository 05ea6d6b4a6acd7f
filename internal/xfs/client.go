package xfs

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/lru"
	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/swraid"
)

// ErrUnreadable is returned when a block cannot be produced (storage
// lost beyond redundancy, or its manager unreachable).
var ErrUnreadable = errors.New("xfs: block unreadable")

// cachedBlock is a client-cache entry. A clean block's data may be
// shared with a RAID store and is never written; a dirty block's data
// is a buffer the client allocated, changed in place by later writes.
type cachedBlock struct {
	data  []byte
	dirty bool // this client owns the block
	addr  int64
	// prefetched marks a block brought in by the read-ahead pipeline
	// that no Read has consumed yet (prefetch hit/waste accounting).
	prefetched bool
}

// Client is one node's view of the file system.
type Client struct {
	sys   *System
	node  int
	array *swraid.Array
	cache *lru.Cache[BlockKey, *cachedBlock]

	// Sequential-access detector state for read-ahead: the block we
	// expect a sequential reader to ask for next, and the run length so
	// far. A prefetch is in flight while prefetching is true (one
	// outstanding read-ahead per client keeps the pipeline bounded).
	seqFile     FileID
	seqNext     uint32
	seqRun      int
	prefetching bool
}

// tokArgs is a token request.
type tokArgs struct {
	key  BlockKey
	node int
	// write marks a yield performed for an ownership transfer: the old
	// owner must surrender its copy entirely (it is not in the readers
	// set, so no invalidation would ever reach it).
	write bool
}

// tokReply answers a token request.
type tokReply struct {
	// fetchFrom ≥ 0: read the block from this peer's cache.
	fetchFrom int
	// addr is the block's storage address (valid when written).
	addr    int64
	written bool
	// data carries the block directly when ownership migrates.
	data []byte
}

type evictArgs struct {
	key  BlockKey
	node int
	// sync means the client wrote the block back but keeps a clean
	// copy: it stays a reader, only ownership is released.
	sync bool
}

func (c *Client) register() {
	ep := c.sys.eps[c.node]
	ep.Register(hFetchBlk, c.onFetchBlk)
	ep.Register(hYield, c.onYield)
	ep.Register(hInval, c.onInval)
}

// ---- manager side of the protocol ----

// lookup finds or creates metadata for key.
func (m *manager) lookup(key BlockKey) *blockMeta {
	bm, ok := m.meta[key]
	if !ok {
		bm = &blockMeta{owner: -1, readers: make(map[int]struct{})}
		// Allocate a storage address: interleave across managers so
		// allocations never collide.
		bm.addr = m.nextAddr*int64(m.sys.cfg.Managers) + int64(m.idx)
		m.nextAddr++
		m.meta[key] = bm
	}
	return bm
}

// grantRead is the read-token core: the reply tells the client where
// the freshest copy is. A dirty owner is downgraded (it writes back and
// becomes a reader) so storage and caches converge.
func (m *manager) grantRead(p *sim.Proc, key BlockKey, node int) tokReply {
	bm := m.lookup(key)
	rep := tokReply{fetchFrom: -1, addr: bm.addr}
	if bm.owner >= 0 && bm.owner != node {
		// Downgrade the owner: it writes the block back and keeps a
		// clean copy; the reader fetches cache-to-cache from it.
		if _, err := m.sys.eps[m.node].Call(p, netsim.NodeID(bm.owner), hYield,
			tokArgs{key: key, node: node}, 32); err == nil {
			bm.readers[bm.owner] = struct{}{}
			rep.fetchFrom = bm.owner
			bm.written = true
		}
		bm.owner = -1
	} else if bm.owner == node {
		rep.fetchFrom = node // it already has the freshest copy
	} else {
		// Cooperative caching: serve from any current reader.
		best := -1
		for r := range bm.readers {
			if r != node && (best < 0 || r < best) {
				best = r
			}
		}
		rep.fetchFrom = best
	}
	bm.readers[node] = struct{}{}
	rep.written = bm.written
	rep.addr = bm.addr
	m.replicate(p, key, bm)
	return rep
}

// onReadTok grants a single read token.
func (m *manager) onReadTok(p *sim.Proc, msg am.Msg) (any, int) {
	args, ok := msg.Arg.(tokArgs)
	if !ok {
		return nil, 0
	}
	return m.grantRead(p, args.key, args.node), 48
}

// grantWrite is the ownership core: every other copy is invalidated,
// and if a previous owner exists its data migrates with the grant.
func (m *manager) grantWrite(p *sim.Proc, key BlockKey, node int) tokReply {
	bm := m.lookup(key)
	rep := tokReply{fetchFrom: -1, addr: bm.addr, written: bm.written}
	ep := m.sys.eps[m.node]
	if bm.owner >= 0 && bm.owner != node {
		sp := m.sys.obs.StartSpan("xfs.ownership.transfer", m.node)
		if sp != 0 {
			m.sys.obs.Annotate(sp, fmt.Sprintf("owner %d → %d", bm.owner, node))
		}
		// Migrate ownership: the old owner yields its (possibly dirty)
		// data, which rides back through the grant.
		if reply, err := ep.Call(p, netsim.NodeID(bm.owner), hYield,
			tokArgs{key: key, node: node, write: true}, 32); err == nil {
			if data, ok := reply.([]byte); ok {
				rep.data = data
				bm.written = true
				rep.written = true
			}
		}
		m.sys.stats.OwnerYields++
		bm.owner = -1
		m.sys.obs.EndSpan(sp)
	}
	// Invalidate all readers (deterministic order).
	for r := 0; r < m.sys.cfg.Nodes; r++ {
		if _, isReader := bm.readers[r]; !isReader || r == node {
			continue
		}
		_ = ep.Send(p, netsim.NodeID(r), hInval, key, 24)
		m.sys.stats.Invalidations++
		delete(bm.readers, r)
	}
	delete(bm.readers, node)
	bm.owner = node
	m.replicate(p, key, bm)
	return rep
}

// onWriteTok grants single-block ownership.
func (m *manager) onWriteTok(p *sim.Proc, msg am.Msg) (any, int) {
	args, ok := msg.Arg.(tokArgs)
	if !ok {
		return nil, 0
	}
	rep := m.grantWrite(p, args.key, args.node)
	return rep, 48 + len(rep.data)
}

// applyEvict is the directory update behind evict/sync notes.
func (m *manager) applyEvict(p *sim.Proc, args evictArgs) {
	if bm, ok := m.meta[args.key]; ok {
		if args.sync {
			bm.readers[args.node] = struct{}{}
		} else {
			delete(bm.readers, args.node)
		}
		if bm.owner == args.node {
			bm.owner = -1
			bm.written = true // owner wrote back before releasing
		}
		m.replicate(p, args.key, bm)
	}
}

// onEvictNote keeps the directory accurate when clients drop copies.
func (m *manager) onEvictNote(p *sim.Proc, msg am.Msg) (any, int) {
	args, ok := msg.Arg.(evictArgs)
	if !ok {
		return nil, 0
	}
	m.applyEvict(p, args)
	return nil, 0
}

// ---- client side ----

// onFetchBlk serves a cache-to-cache transfer.
func (c *Client) onFetchBlk(p *sim.Proc, msg am.Msg) (any, int) {
	key, ok := msg.Arg.(BlockKey)
	if !ok {
		return nil, 0
	}
	cb, ok := c.cache.Peek(key)
	if !ok {
		return nil, 0
	}
	out := make([]byte, len(cb.data))
	copy(out, cb.data)
	return out, len(out)
}

// onYield surrenders this client's ownership: write the dirty block
// back to storage and return the data. For a read-triggered downgrade
// the client keeps a clean copy (it becomes a reader); for a
// write-triggered transfer it drops the copy entirely — it will not be
// in the new directory's reader set, so no later invalidation could
// reach it.
func (c *Client) onYield(p *sim.Proc, msg am.Msg) (any, int) {
	args, ok := msg.Arg.(tokArgs)
	if !ok {
		return nil, 0
	}
	cb, ok := c.cache.Peek(args.key)
	if !ok {
		return nil, 0
	}
	if cb.dirty {
		if err := c.array.WriteChunks(p, cb.addr, cb.data); err == nil {
			c.sys.stats.StorageWrites++
			cb.dirty = false
		}
	}
	out := make([]byte, len(cb.data))
	copy(out, cb.data)
	if args.write {
		c.cache.Remove(args.key)
	}
	return out, len(out)
}

// onInval drops this client's copy (writing back first if it somehow
// still owns it — belt and braces; the protocol yields owners).
func (c *Client) onInval(p *sim.Proc, msg am.Msg) (any, int) {
	key, ok := msg.Arg.(BlockKey)
	if !ok {
		return nil, 0
	}
	if cb, ok := c.cache.Peek(key); ok && cb.dirty {
		if err := c.array.WriteChunks(p, cb.addr, cb.data); err == nil {
			c.sys.stats.StorageWrites++
		}
	}
	c.cache.Remove(key)
	return nil, 0
}

// insert caches a block, handling eviction: dirty victims are written
// back to the RAID; the manager is told either way.
func (c *Client) insert(p *sim.Proc, key BlockKey, cb *cachedBlock) {
	vKey, vVal, evicted := c.cache.Put(key, cb)
	if !evicted {
		return
	}
	if vVal.prefetched {
		c.sys.stats.PrefetchWasted++
	}
	if vVal.dirty {
		if err := c.array.WriteChunks(p, vVal.addr, vVal.data); err == nil {
			c.sys.stats.StorageWrites++
		}
	}
	mgr := c.sys.managerOf(vKey.File)
	_ = c.sys.eps[c.node].Send(p, netsim.NodeID(mgr.node), hEvictNote,
		evictArgs{key: vKey, node: c.node}, 32)
}

// getLocal serves a read from the local cache, consuming the prefetch
// mark: a block the read-ahead pipeline staged counts as a hit the
// first time a Read actually uses it.
func (c *Client) getLocal(key BlockKey) ([]byte, bool) {
	cb, ok := c.cache.Get(key)
	if !ok {
		return nil, false
	}
	if cb.prefetched {
		cb.prefetched = false
		c.sys.stats.PrefetchHits++
	}
	out := make([]byte, len(cb.data))
	copy(out, cb.data)
	return out, true
}

// Read returns the block's contents, obtaining a read token and the
// freshest copy from wherever it lives. The returned slice is the
// caller's own copy. When the configuration enables
// read-ahead, a detected sequential run prefetches the next blocks
// concurrently with the application (see pipeline.go).
func (c *Client) Read(p *sim.Proc, f FileID, blk uint32) ([]byte, error) {
	key := BlockKey{File: f, Block: blk}
	c.sys.stats.Reads++
	// The detector runs before the fetch so a triggered read-ahead
	// overlaps this block's own miss instead of starting after it.
	c.noteSequential(p, f, blk)
	if data, ok := c.getLocal(key); ok {
		c.sys.stats.LocalHits++
		return data, nil
	}
	mgr := c.sys.managerOf(f)
	reply, err := c.sys.eps[c.node].Call(p, netsim.NodeID(mgr.node), hReadTok,
		tokArgs{key: key, node: c.node}, 40)
	if err != nil {
		return nil, fmt.Errorf("xfs: read token: %w", err)
	}
	rep, ok := reply.(tokReply)
	if !ok {
		return nil, fmt.Errorf("%w: bad token reply", ErrUnreadable)
	}
	var data []byte
	if rep.fetchFrom >= 0 && rep.fetchFrom != c.node {
		if got, err := c.sys.eps[c.node].Call(p, netsim.NodeID(rep.fetchFrom), hFetchBlk, key, 32); err == nil {
			if bytes, ok := got.([]byte); ok && bytes != nil {
				data = bytes
				c.sys.stats.CacheTransfers++
			}
		}
	}
	if data == nil {
		if !rep.written {
			// Never written: a fresh block reads as zeros.
			data = make([]byte, c.sys.cfg.BlockBytes)
		} else {
			data, err = c.array.ReadChunks(p, rep.addr, 1)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrUnreadable, err)
			}
			c.sys.stats.StorageReads++
		}
	}
	c.insert(p, key, &cachedBlock{data: data, addr: rep.addr})
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Write replaces the block's contents (block-granularity writes, like a
// log-structured segment writer), obtaining ownership first.
func (c *Client) Write(p *sim.Proc, f FileID, blk uint32, data []byte) error {
	if len(data) != c.sys.cfg.BlockBytes {
		return fmt.Errorf("xfs: write of %d bytes, block is %d", len(data), c.sys.cfg.BlockBytes)
	}
	key := BlockKey{File: f, Block: blk}
	c.sys.stats.Writes++
	if cb, ok := c.cache.Get(key); ok && cb.dirty {
		copy(cb.data, data) // already the owner
		return nil
	}
	mgr := c.sys.managerOf(f)
	reply, err := c.sys.eps[c.node].Call(p, netsim.NodeID(mgr.node), hWriteTok,
		tokArgs{key: key, node: c.node}, 40)
	if err != nil {
		return fmt.Errorf("xfs: write token: %w", err)
	}
	rep, ok := reply.(tokReply)
	if !ok {
		return fmt.Errorf("xfs: bad write-token reply")
	}
	buf := make([]byte, c.sys.cfg.BlockBytes)
	copy(buf, data)
	c.insert(p, key, &cachedBlock{data: buf, dirty: true, addr: rep.addr})
	return nil
}

// Sync writes back every dirty block this client owns. With
// Config.WriteBehind set it is a group commit: one vectored RAID write
// covers every dirty block (stripes issued concurrently) and the
// per-manager sync notes travel in batches; otherwise each block is
// written back serially, the pre-pipeline behaviour.
func (c *Client) Sync(p *sim.Proc) error {
	if c.sys.cfg.WriteBehind {
		return c.groupCommit(p)
	}
	var firstErr error
	for _, key := range c.cache.Keys() {
		cb, ok := c.cache.Peek(key)
		if !ok || !cb.dirty {
			continue
		}
		if err := c.array.WriteChunks(p, cb.addr, cb.data); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.sys.stats.StorageWrites++
		cb.dirty = false
		mgr := c.sys.managerOf(key.File)
		_ = c.sys.eps[c.node].Send(p, netsim.NodeID(mgr.node), hEvictNote,
			evictArgs{key: key, node: c.node, sync: true}, 32)
	}
	return firstErr
}

// Array exposes the client's RAID view (failure-injection tests mark
// stores failed through it).
func (c *Client) Array() *swraid.Array { return c.array }
