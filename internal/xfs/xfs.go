// Package xfs implements xFS, the paper's serverless network file
// system: "client workstations cooperate in all aspects of the file
// system — storing data, managing metadata, and enforcing protection",
// with no central server anywhere.
//
// The four features the paper lists are all here:
//
//   - metadata and control migrate between clients: files hash to
//     manager nodes via the manager map, and when a manager crashes its
//     hot-standby replica takes over (any client can stand in for any
//     failed client);
//   - cache coherence is a multiprocessor-style write-back ownership
//     protocol: one owner may write a block; readers hold copies that
//     ownership changes invalidate; cache-to-cache transfers maximise
//     locality of data;
//   - file data lives in a software RAID (internal/swraid) striped
//     across every workstation's disk, so a storage node crash degrades
//     to parity reconstruction rather than data loss;
//   - client memories are cooperatively managed: a read miss is served
//     from another client's cache before anyone's disk.
//
// Block contents are real bytes end to end (through the RAID's XOR
// parity), so the tests verify coherence and recovery by value, not by
// counters alone.
//
// A block is copied once on its way to the application, at the API
// edge: Read and ReadAt return buffers the caller owns. Inside, a clean
// cached block may share its bytes with the RAID store it was read from
// (swraid read results are read-only). That is safe because the only
// in-place changes, Write and WriteAt on a block the client already
// owns, touch dirty blocks, and a dirty block's buffer is always one
// the client allocated itself.
//
// System.Instrument attaches an internal/obs registry: operation and
// coherence-traffic gauges plus an xfs.ownership.transfer span per
// write-ownership migration (docs/OBSERVABILITY.md).
package xfs

import (
	"fmt"

	"github.com/nowproject/now/internal/lru"
	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
	"github.com/nowproject/now/internal/swraid"
)

// AM handlers (xfs owns 0x90–0x9F).
const (
	hReadTok am.HandlerID = 0x90 + iota
	hWriteTok
	hFetchBlk
	hYield
	hInval
	hEvictNote
	hMetaRepl
	// Range-token and batch handlers: one round trip covers a contiguous
	// block run (the pipelined data path, DESIGN.md §9).
	hReadRangeTok
	hWriteRangeTok
	hEvictBatch
)

// FileID names a file; BlockNo a block within it.
type FileID uint32

// BlockKey identifies one file block.
type BlockKey struct {
	File  FileID
	Block uint32
}

// Config shapes the file system.
type Config struct {
	// Nodes is the number of participating workstations; every one runs
	// a client and a storage server, the first Managers also manage.
	Nodes int
	// SpareNodes at the end of the id range run storage servers but are
	// left out of the initial stripe group — hot spares for
	// RecoverStorage. Zero is fine; recovery then needs an external
	// replacement.
	SpareNodes int
	// Managers is the size of the manager set.
	Managers int
	// BlockBytes is the file block (and RAID chunk) size.
	BlockBytes int
	// ClientCacheBlocks bounds each client's block cache.
	ClientCacheBlocks int
	// RAIDLevel for the storage substrate.
	RAIDLevel swraid.Level
	// Fabric and Proto choose the communication substrate.
	Fabric func(nodes int) netsim.Config
	Proto  am.Config

	// ReadAhead enables the sequential-scan pipeline: when a client
	// detects a sequential access run, it prefetches the next ReadAhead
	// blocks concurrently (range token, overlapped peer-cache fetches
	// and stripe reads). Zero disables prefetching — the strictly
	// serial pre-pipeline behaviour.
	ReadAhead int
	// WriteBehind enables group commit: Sync flushes all dirty blocks
	// through one vectored RAID write and batches the per-manager evict
	// notes, instead of one blocking write per block.
	WriteBehind bool
}

// DefaultConfig returns a building-scale configuration: RAID-5 storage,
// lean messaging on a switched fabric.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:             nodes,
		Managers:          max(1, nodes/4),
		BlockBytes:        8192,
		ClientCacheBlocks: 256,
		RAIDLevel:         swraid.RAID5,
		Fabric:            netsim.ATM155,
		Proto:             am.DefaultConfig(),
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PipelinedConfig is DefaultConfig with the pipelined data path on:
// 8-block read-ahead and write-behind group commit. Sequential scans
// run at pipeline bandwidth instead of single-request latency.
func PipelinedConfig(nodes int) Config {
	cfg := DefaultConfig(nodes)
	cfg.ReadAhead = 8
	cfg.WriteBehind = true
	return cfg
}

// blockMeta is a manager's state for one block.
type blockMeta struct {
	addr    int64 // logical chunk index in the RAID
	owner   int   // node holding the dirty/writable copy, -1 if none
	readers map[int]struct{}
	written bool // block has ever been written to storage
}

func (bm *blockMeta) clone() *blockMeta {
	c := &blockMeta{addr: bm.addr, owner: bm.owner, written: bm.written,
		readers: make(map[int]struct{}, len(bm.readers))}
	for r := range bm.readers {
		c.readers[r] = struct{}{}
	}
	return c
}

// manager owns the metadata for the files that hash to it.
type manager struct {
	sys      *System
	idx      int // manager index (not node id)
	node     int // current hosting node
	standby  int // node holding this manager's metadata replica
	meta     map[BlockKey]*blockMeta
	nextAddr int64
}

// System is one xFS installation.
type System struct {
	cfg      Config
	eng      *sim.Engine
	fab      *netsim.Fabric
	eps      []*am.Endpoint
	stores   []*swraid.Store
	clients  []*Client
	managers []*manager
	// replicas[i] is the standby copy of manager i's metadata, hosted on
	// the standby node.
	replicas []map[BlockKey]*blockMeta
	// down marks crashed nodes: never chosen as a manager host or
	// standby again.
	down map[int]bool

	stats Stats
	obs   *obs.Registry // nil unless Instrument attached a registry
}

// Stats aggregates system activity.
type Stats struct {
	Reads          int64
	Writes         int64
	LocalHits      int64
	CacheTransfers int64 // served from a peer's cache
	StorageReads   int64
	StorageWrites  int64
	Invalidations  int64
	OwnerYields    int64
	Failovers      int64
	Handoffs       int64 // graceful manager moves (drain), no metadata loss

	// Pipelined data path (ReadAt/WriteAt, read-ahead, group commit).
	RangeReads     int64 // read-range token calls (one per ReadAt batch)
	RangeWrites    int64 // write-range token calls (one per WriteAt batch)
	BatchedTokens  int64 // tokens granted through range calls
	BatchedEvicts  int64 // evict/sync notes carried in batch messages
	GroupCommits   int64 // write-behind Sync flushes
	PrefetchIssued int64 // blocks fetched ahead of the reader
	PrefetchHits   int64 // prefetched blocks later read locally
	PrefetchWasted int64 // prefetched blocks evicted unread
}

// New builds the system on e.
func New(e *sim.Engine, cfg Config) (*System, error) {
	if cfg.Nodes < 3 {
		return nil, fmt.Errorf("xfs: need ≥3 nodes for RAID-5 storage, have %d", cfg.Nodes)
	}
	if cfg.Managers <= 0 || cfg.Managers > cfg.Nodes {
		return nil, fmt.Errorf("xfs: %d managers on %d nodes", cfg.Managers, cfg.Nodes)
	}
	if cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("xfs: block size %d", cfg.BlockBytes)
	}
	if cfg.Fabric == nil {
		cfg.Fabric = netsim.ATM155
	}
	fab, err := netsim.New(e, cfg.Fabric(cfg.Nodes))
	if err != nil {
		return nil, fmt.Errorf("xfs: %w", err)
	}
	if cfg.SpareNodes < 0 || cfg.Nodes-cfg.SpareNodes < 3 {
		return nil, fmt.Errorf("xfs: %d spares leaves too few stripe members", cfg.SpareNodes)
	}
	sys := &System{cfg: cfg, eng: e, fab: fab}
	stripeMembers := cfg.Nodes - cfg.SpareNodes
	storeIDs := make([]netsim.NodeID, 0, stripeMembers)
	for i := 0; i < cfg.Nodes; i++ {
		nd := node.New(e, node.DefaultConfig(netsim.NodeID(i)))
		ep := am.NewEndpoint(e, nd, fab, cfg.Proto)
		sys.eps = append(sys.eps, ep)
		sys.stores = append(sys.stores, swraid.NewStore(ep))
		if i < stripeMembers {
			storeIDs = append(storeIDs, ep.ID())
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		arr, err := swraid.NewArray(sys.eps[i], swraid.Config{
			Level:      cfg.RAIDLevel,
			ChunkBytes: cfg.BlockBytes,
			Stores:     append([]netsim.NodeID(nil), storeIDs...),
		})
		if err != nil {
			return nil, fmt.Errorf("xfs: %w", err)
		}
		c := &Client{
			sys:   sys,
			node:  i,
			array: arr,
			cache: lru.New[BlockKey, *cachedBlock](cfg.ClientCacheBlocks),
		}
		c.register()
		sys.clients = append(sys.clients, c)
	}
	sys.down = make(map[int]bool)
	sys.managers = make([]*manager, cfg.Managers)
	sys.replicas = make([]map[BlockKey]*blockMeta, cfg.Managers)
	for i := 0; i < cfg.Managers; i++ {
		sys.managers[i] = &manager{sys: sys, idx: i, node: i,
			standby: (i + 1) % cfg.Nodes, meta: make(map[BlockKey]*blockMeta)}
		sys.replicas[i] = make(map[BlockKey]*blockMeta)
	}
	sys.registerManagerHandlers()
	return sys, nil
}

// Client returns node i's client interface.
func (sys *System) Client(i int) *Client { return sys.clients[i] }

// Stats returns the accumulated counters.
func (sys *System) Stats() Stats { return sys.stats }

// Nodes returns the number of participating workstations.
func (sys *System) Nodes() int { return sys.cfg.Nodes }

// Fabric exposes the system's network. Standalone installations (no
// GLUnix cluster sharing the registry) instrument it for net.* metrics;
// the scenario runner also reads its Stats for run reports.
func (sys *System) Fabric() *netsim.Fabric { return sys.fab }

// Managers returns the size of the manager set.
func (sys *System) Managers() int { return len(sys.managers) }

// SpareNodeIDs lists the configured hot-spare nodes: storage servers
// outside the initial stripe group, available to RecoverStorage.
func (sys *System) SpareNodeIDs() []int {
	ids := make([]int, 0, sys.cfg.SpareNodes)
	for i := sys.cfg.Nodes - sys.cfg.SpareNodes; i < sys.cfg.Nodes; i++ {
		ids = append(ids, i)
	}
	return ids
}

// NodeDown reports whether node n has been removed from the
// installation (crashed, drained, or killed with its manager).
func (sys *System) NodeDown(n int) bool { return sys.down[n] }

// StripeMembers lists the nodes currently in the storage stripe, in
// layout order, as seen by a live client. After RecoverStorage the
// replaced member's slot names the spare that adopted its data.
func (sys *System) StripeMembers() []int {
	a := sys.viewArray()
	if a == nil {
		return nil
	}
	stores := a.Config().Stores
	out := make([]int, len(stores))
	for i, id := range stores {
		out[i] = int(id)
	}
	return out
}

// FailedStores lists stripe members currently marked failed — the
// degraded set a health check watches. Empty when the stripe is whole.
func (sys *System) FailedStores() []int {
	a := sys.viewArray()
	if a == nil {
		return nil
	}
	var out []int
	for _, id := range a.FailedStores() {
		out = append(out, int(id))
	}
	return out
}

// ManagersOn lists the manager indexes currently hosted on node n.
func (sys *System) ManagersOn(n int) []int {
	var out []int
	for _, m := range sys.managers {
		if m.node == n {
			out = append(out, m.idx)
		}
	}
	return out
}

// viewArray returns a live client's array — the authoritative view of
// the shared layout (all clients adopt the same one).
func (sys *System) viewArray() *swraid.Array {
	for _, c := range sys.clients {
		if !sys.down[c.node] {
			return c.array
		}
	}
	return nil
}

// HandoffManagers gracefully moves every manager hosted on node to its
// standby: unlike FailManager, the full metadata map travels with the
// role (no async-replica loss window) and nothing crashes. It is the
// manager half of a drain; the caller removes the node afterwards.
// Returns how many managers moved.
func (sys *System) HandoffManagers(node int) int {
	moved := 0
	for _, m := range sys.managers {
		if m.node != node {
			continue
		}
		sp := sys.obs.StartSpan("xfs.mgr.handoff", node)
		dest := m.standby
		if dest == node || sys.down[dest] {
			dest = sys.nextAlive(node, node)
		}
		m.node = dest
		m.standby = sys.nextAlive(dest, dest)
		// Graceful: m.meta moves with the role; the replica map restarts
		// empty on the new standby and re-fills as entries are written.
		sys.replicas[m.idx] = make(map[BlockKey]*blockMeta)
		sys.stats.Handoffs++
		if sp != 0 {
			sys.obs.Annotate(sp, fmt.Sprintf("manager %d → node %d", m.idx, dest))
		}
		sys.obs.EndSpan(sp)
		moved++
	}
	if moved > 0 {
		sys.registerManagerHandlers()
	}
	return moved
}

// managerOf maps a file to its manager index (the manager map).
func (sys *System) managerOf(f FileID) *manager {
	return sys.managers[int(f)%sys.cfg.Managers]
}

// standbyNode returns where manager m's replica lives. The standby is
// initially the next node after the manager's host and is re-pointed
// when either node crashes (see retargetStandbys).
func (sys *System) standbyNode(m *manager) int {
	return m.standby
}

// nextAlive returns the first node after n (cyclically) that is not
// down and not except — the standby/failover placement rule.
func (sys *System) nextAlive(n, except int) int {
	for i := 1; i <= sys.cfg.Nodes; i++ {
		c := (n + i) % sys.cfg.Nodes
		if !sys.down[c] && c != except {
			return c
		}
	}
	return n
}

// retargetStandbys gives every manager whose standby has crashed a new
// standby and re-registers the replication handlers. The replica map
// itself lives in sys.replicas (keyed by manager), so the re-point
// models the surviving manager re-seeding a new standby; the bulk
// metadata copy is not charged to the network — entries re-replicate
// incrementally as they are next written.
func (sys *System) retargetStandbys() {
	changed := false
	for _, m := range sys.managers {
		if sys.down[m.standby] {
			m.standby = sys.nextAlive(m.standby, m.node)
			changed = true
		}
	}
	if changed {
		sys.registerManagerHandlers()
	}
}

// maxLogicalChunk returns an upper bound on allocated storage addresses
// across all managers, for sizing a rebuild.
func (sys *System) maxLogicalChunk() int64 {
	var max int64
	for _, m := range sys.managers {
		if top := m.nextAddr*int64(sys.cfg.Managers) + int64(m.idx); top > max {
			max = top
		}
	}
	for i, rep := range sys.replicas {
		for _, bm := range rep {
			if bm.addr > max {
				max = bm.addr
			}
		}
		_ = i
	}
	return max
}

// RecoverStorage rebuilds the data a crashed store held onto spare
// (which must run a Store — the hot spares configured with SpareNodes
// do) and switches every client's array to the new layout — the paper's
// "if one workstation in the NOW crashes, any other can take its
// place". After recovery the array tolerates another single failure.
func (sys *System) RecoverStorage(p *sim.Proc, failed, spare int) error {
	if failed < 0 || failed >= len(sys.eps) || spare < 0 || spare >= len(sys.eps) {
		return fmt.Errorf("xfs: recover %d→%d out of range", failed, spare)
	}
	failedID := sys.eps[failed].ID()
	spareID := sys.eps[spare].ID()
	// One live client performs the reconstruction writes...
	var rebuilder *Client
	for _, c := range sys.clients {
		if c.node != failed && c.node != spare {
			rebuilder = c
			break
		}
	}
	if rebuilder == nil {
		return fmt.Errorf("xfs: no live client to rebuild")
	}
	d := int64(len(rebuilder.array.Config().Stores) - 1) // RAID-5 data per stripe
	if rebuilder.array.Config().Level != swraid.RAID5 {
		d = int64(len(rebuilder.array.Config().Stores))
	}
	stripes := sys.maxLogicalChunk()/d + 1
	if err := rebuilder.array.Rebuild(p, failedID, spareID, stripes); err != nil {
		return fmt.Errorf("xfs: rebuild: %w", err)
	}
	// ...and every other view adopts the new layout.
	for _, c := range sys.clients {
		if c == rebuilder {
			continue
		}
		if err := c.array.AdoptReplacement(failedID, spareID); err != nil {
			return fmt.Errorf("xfs: adopt: %w", err)
		}
	}
	return nil
}

// CrashStorage simulates the fail-stop crash of a (non-manager) node:
// its endpoint detaches and every client's RAID view marks its store
// failed, so subsequent reads reconstruct through redundancy. Managers
// whose standby lived on the node pick a new one, and the dead node is
// purged from block metadata (it holds no cached copies any more).
func (sys *System) CrashStorage(node int) {
	if node < 0 || node >= len(sys.eps) {
		return
	}
	sys.eps[node].Detach()
	for _, c := range sys.clients {
		c.array.MarkFailed(sys.eps[node].ID())
	}
	sys.down[node] = true
	sys.purgeFromMeta(node)
	sys.retargetStandbys()
}

// purgeFromMeta removes a dead node from every manager's block
// metadata: it can hold no tokens or cached copies.
func (sys *System) purgeFromMeta(dead int) {
	for _, m := range sys.managers {
		for _, bm := range m.meta {
			delete(bm.readers, dead)
			if bm.owner == dead {
				bm.owner = -1
			}
		}
	}
}

// FailManager simulates the crash of the node hosting manager idx and
// fails the manager over to its standby, which adopts the replica. The
// crashed node's endpoint detaches; its cached blocks are lost; the
// storage substrate serves its chunks through parity.
func (sys *System) FailManager(p *sim.Proc, idx int) {
	m := sys.managers[idx]
	dead := m.node
	sys.eps[dead].Detach()
	for _, c := range sys.clients {
		c.array.MarkFailed(sys.eps[dead].ID())
	}
	sys.down[dead] = true
	// The standby adopts the replica and becomes the manager, then
	// picks a fresh standby of its own.
	m.node = sys.standbyNode(m)
	m.standby = sys.nextAlive(m.node, m.node)
	m.meta = sys.replicas[idx]
	sys.replicas[idx] = make(map[BlockKey]*blockMeta)
	// The dead node can no longer hold tokens or copies, anywhere.
	sys.purgeFromMeta(dead)
	sys.stats.Failovers++
	// Other managers may have had their standby on the dead node too;
	// retargetStandbys re-registers all handlers.
	sys.retargetStandbys()
	sys.registerManagerHandlers()
}

// registerManagerHandlers (re)installs the manager RPC handlers on the
// nodes currently hosting each manager, and the replication sink on
// standbys.
func (sys *System) registerManagerHandlers() {
	for _, m := range sys.managers {
		m := m
		ep := sys.eps[m.node]
		ep.Register(hReadTok, func(p *sim.Proc, msg am.Msg) (any, int) {
			return sys.managerFor(msg).onReadTok(p, msg)
		})
		ep.Register(hWriteTok, func(p *sim.Proc, msg am.Msg) (any, int) {
			return sys.managerFor(msg).onWriteTok(p, msg)
		})
		ep.Register(hEvictNote, func(p *sim.Proc, msg am.Msg) (any, int) {
			return sys.managerFor(msg).onEvictNote(p, msg)
		})
		ep.Register(hReadRangeTok, func(p *sim.Proc, msg am.Msg) (any, int) {
			return sys.managerFor(msg).onReadRangeTok(p, msg)
		})
		ep.Register(hWriteRangeTok, func(p *sim.Proc, msg am.Msg) (any, int) {
			return sys.managerFor(msg).onWriteRangeTok(p, msg)
		})
		ep.Register(hEvictBatch, func(p *sim.Proc, msg am.Msg) (any, int) {
			return sys.managerFor(msg).onEvictBatch(p, msg)
		})
	}
	for i := range sys.managers {
		standby := sys.standbyNode(sys.managers[i])
		sys.eps[standby].Register(hMetaRepl, func(p *sim.Proc, msg am.Msg) (any, int) {
			upd, ok := msg.Arg.(replUpdate)
			if !ok {
				return nil, 0
			}
			sys.replicas[upd.manager][upd.key] = upd.meta
			return nil, 0
		})
	}
}

// managerFor finds the manager addressed by a token request (requests
// carry the file; several managers may share a hosting node).
func (sys *System) managerFor(msg am.Msg) *manager {
	switch a := msg.Arg.(type) {
	case tokArgs:
		return sys.managerOf(a.key.File)
	case evictArgs:
		return sys.managerOf(a.key.File)
	case rangeTokArgs:
		return sys.managerOf(a.file)
	case evictBatchArgs:
		if len(a.notes) > 0 {
			return sys.managerOf(a.notes[0].key.File)
		}
		return sys.managers[0]
	default:
		return sys.managers[0]
	}
}

type replUpdate struct {
	manager int
	key     BlockKey
	meta    *blockMeta
}

// replicate pushes one metadata entry to the standby (asynchronously —
// xFS trades a window of vulnerability for latency, like its log-based
// original; Sync publication points are the durable ones).
func (m *manager) replicate(p *sim.Proc, key BlockKey, bm *blockMeta) {
	standby := m.sys.standbyNode(m)
	m.sys.eps[m.node].SendAsync(p, netsim.NodeID(standby), hMetaRepl,
		replUpdate{manager: m.idx, key: key, meta: bm.clone()}, 64)
}
