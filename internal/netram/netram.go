// Package netram implements network RAM: paging to the idle DRAM of
// other workstations instead of the local disk, "fulfilling the original
// promise of virtual memory" (the paper's words). A Pager intercepts a
// process's page faults; evicted pages are pushed to Servers — idle
// machines offering frames through a Registry — and faulted back over
// Active Messages an order of magnitude faster than a disk access.
//
// When no idle memory is available (or a server fills up) the pager
// falls back to its local disk, so behaviour degrades to classic paging
// rather than failing. When an idle machine's user returns, its server
// reclaims: stored pages are returned to their owners, who write the
// dirty ones to disk.
package netram

import (
	"fmt"
	"sort"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// Handler IDs used by the network RAM protocol (one AM namespace is
// shared across subsystems; netram owns 0x30–0x3F).
const (
	hPut am.HandlerID = 0x30 + iota
	hGet
	hReturn
)

// Registry is the idle-memory directory: which nodes currently offer
// frames and how many remain. It models the GLUnix global resource
// directory; lookups are free (the real system caches the directory at
// each node), while every page *transfer* pays full communication costs.
type Registry struct {
	servers map[netsim.NodeID]*Server
	// ids keeps the offered servers in ascending id order. Every walk
	// of the directory goes through it — iterating the map directly
	// would make selection depend on Go's randomized map order.
	ids []netsim.NodeID
}

// NewRegistry creates an empty directory.
func NewRegistry() *Registry {
	return &Registry{servers: make(map[netsim.NodeID]*Server)}
}

// Offer registers a server's free frames. Re-offering an id replaces
// its entry.
func (r *Registry) Offer(s *Server) {
	id := s.ep.ID()
	if _, ok := r.servers[id]; !ok {
		i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= id })
		r.ids = append(r.ids, 0)
		copy(r.ids[i+1:], r.ids[i:])
		r.ids[i] = id
	}
	r.servers[id] = s
}

// Withdraw removes a server from the directory (its pages stay stored
// until Reclaim).
func (r *Registry) Withdraw(id netsim.NodeID) {
	if _, ok := r.servers[id]; !ok {
		return
	}
	delete(r.servers, id)
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= id })
	r.ids = append(r.ids[:i], r.ids[i+1:]...)
}

// Pick returns a server with free frames, excluding self; ok=false when
// the network has no spare memory. Selection is lowest-id-first for
// determinism.
func (r *Registry) Pick(self netsim.NodeID) (*Server, bool) {
	for _, id := range r.ids {
		if id == self {
			continue
		}
		if s := r.servers[id]; s.free > 0 {
			return s, true
		}
	}
	return nil, false
}

// TotalFree sums free frames across offered servers.
func (r *Registry) TotalFree() int {
	n := 0
	for _, id := range r.ids {
		n += r.servers[id].free
	}
	return n
}

// pageRef names a page owned by a particular node.
type pageRef struct {
	owner netsim.NodeID
	page  node.PageID
}

// Server donates a fixed number of page frames on an idle workstation.
type Server struct {
	ep     *am.Endpoint
	frames int
	free   int
	store  map[pageRef]bool // value: dirty

	stored, returned int64
}

// NewServer creates a server donating frames page frames on ep's node
// and registers its protocol handlers.
func NewServer(ep *am.Endpoint, frames int) *Server {
	s := &Server{ep: ep, frames: frames, free: frames, store: make(map[pageRef]bool)}
	ep.Register(hPut, s.onPut)
	ep.Register(hGet, s.onGet)
	return s
}

type putArgs struct {
	page  node.PageID
	dirty bool
}

func (s *Server) onPut(p *sim.Proc, m am.Msg) (any, int) {
	args, ok := m.Arg.(putArgs)
	if !ok {
		return false, 1
	}
	ref := pageRef{owner: m.Src, page: args.page}
	if _, dup := s.store[ref]; !dup && s.free <= 0 {
		return false, 1 // rejected: full
	}
	if _, dup := s.store[ref]; !dup {
		s.free--
	}
	s.store[ref] = args.dirty
	s.stored++
	return true, 1
}

func (s *Server) onGet(p *sim.Proc, m am.Msg) (any, int) {
	page, ok := m.Arg.(node.PageID)
	if !ok {
		return nil, 0
	}
	ref := pageRef{owner: m.Src, page: page}
	dirty, have := s.store[ref]
	if !have {
		return nil, 0
	}
	delete(s.store, ref)
	s.free++
	return putArgs{page: page, dirty: dirty}, s.ep.Node().Mem.PageSize()
}

// Reclaim pushes every stored page back to its owner (who writes dirty
// ones to disk) and empties the server — the user came back. It blocks
// p until all pages are returned.
func (s *Server) Reclaim(p *sim.Proc) error {
	refs := make([]pageRef, 0, len(s.store))
	for ref := range s.store {
		refs = append(refs, ref)
	}
	// Deterministic return order (map iteration is randomised).
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		if a.owner != b.owner {
			return a.owner < b.owner
		}
		if a.page.Space != b.page.Space {
			return a.page.Space < b.page.Space
		}
		return a.page.Index < b.page.Index
	})
	var firstErr error
	for _, ref := range refs {
		dirty := s.store[ref]
		err := s.ep.Send(p, ref.owner, hReturn, putArgs{page: ref.page, dirty: dirty},
			s.ep.Node().Mem.PageSize())
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("netram: reclaim to node %d: %w", ref.owner, err)
		}
		delete(s.store, ref)
		s.free++
		s.returned++
	}
	return firstErr
}

// Stats counts pager activity.
type Stats struct {
	Faults       int64 // page faults taken
	ZeroFills    int64 // faults on never-stored pages (demand zero, free)
	RemoteHits   int64 // faults served from network RAM
	DiskReads    int64 // faults served from local disk
	RemoteStores int64 // evictions pushed to network RAM
	DiskWrites   int64 // evictions written to local disk
	Returned     int64 // pages pushed back by reclaiming servers
	LostPages    int64 // remote pages lost to a crashed server (the
	// owning process must restart from a checkpoint — the paper's
	// failure model; the pager substitutes zeros and counts the loss)
}

// Pager manages one node's paging: local frames first, then network
// RAM, then disk.
type Pager struct {
	ep   *am.Endpoint
	mem  *node.Memory
	reg  *Registry
	loc  map[node.PageID]netsim.NodeID // where evicted pages live remotely
	onDi map[node.PageID]bool          // pages whose latest copy is on disk
	st   Stats
	m    *pagerMetrics // nil unless Instrument attached a registry
}

// NewPager creates a pager for ep's node using the registry and installs
// the page-return handler.
func NewPager(ep *am.Endpoint, reg *Registry) *Pager {
	pg := &Pager{
		ep:   ep,
		mem:  ep.Node().Mem,
		reg:  reg,
		loc:  make(map[node.PageID]netsim.NodeID),
		onDi: make(map[node.PageID]bool),
	}
	ep.Register(hReturn, pg.onReturn)
	return pg
}

// onReturn accepts a page pushed back by a reclaiming server: its new
// home is the local disk.
func (pg *Pager) onReturn(p *sim.Proc, m am.Msg) (any, int) {
	args, ok := m.Arg.(putArgs)
	if !ok {
		return nil, 0
	}
	delete(pg.loc, args.page)
	pg.onDi[args.page] = true
	pg.st.Returned++
	if args.dirty {
		pg.ep.Node().Disk.Write(p, pageOffset(args.page, pg.mem.PageSize()), pg.mem.PageSize())
	}
	return nil, 0
}

// Touch references a page, servicing a fault from network RAM or disk
// and handling the eviction it causes. It blocks p for the full service
// time and reports whether the reference faulted.
func (pg *Pager) Touch(p *sim.Proc, page node.PageID, write bool) bool {
	fault, victim, victimDirty, evicted := pg.mem.Touch(page, write)
	if !fault {
		return false
	}
	pg.st.Faults++
	began := p.Now()
	if evicted {
		pg.evict(p, victim, victimDirty)
	}
	pg.fetch(p, page)
	if m := pg.m; m != nil {
		m.faultNs.Observe(int64(p.Now() - began))
	}
	return true
}

// fetch brings a faulted page in from wherever it lives. Pages never
// stored anywhere are demand-zero: anonymous memory materialises for
// free, which keeps cold-start out of the Figure 2 comparison exactly
// as the paper's model does.
func (pg *Pager) fetch(p *sim.Proc, page node.PageID) {
	if host, ok := pg.loc[page]; ok {
		reply, err := pg.ep.Call(p, host, hGet, page, 64)
		if err == nil && reply != nil {
			delete(pg.loc, page)
			pg.st.RemoteHits++
			return
		}
		delete(pg.loc, page)
		if err != nil && !pg.onDi[page] {
			// The server crashed with the only copy: data loss, visible
			// in the stats so the global layer can restart the victim.
			pg.st.LostPages++
			return
		}
		// Server already returned the page (race with Reclaim); the disk
		// path below picks it up.
	}
	if !pg.onDi[page] {
		pg.st.ZeroFills++
		return
	}
	// Disk-resident pages pay a disk read; the disk copy stays valid, so
	// a later clean eviction of this page is free.
	pg.ep.Node().Disk.Read(p, pageOffset(page, pg.mem.PageSize()), pg.mem.PageSize())
	pg.st.DiskReads++
}

// evict pushes a victim page out: to network RAM when an idle server
// accepts it, else to disk. Clean pages are dropped free of charge: the
// backing copy (disk, or the zero page for never-written memory) is
// still valid.
func (pg *Pager) evict(p *sim.Proc, victim node.PageID, dirty bool) {
	if !dirty {
		return
	}
	if s, ok := pg.reg.Pick(pg.ep.ID()); ok {
		accepted, err := pg.ep.Call(p, s.ep.ID(), hPut,
			putArgs{page: victim, dirty: dirty}, pg.mem.PageSize())
		if err == nil && accepted == true {
			pg.loc[victim] = s.ep.ID()
			pg.st.RemoteStores++
			return
		}
	}
	pg.ep.Node().Disk.Write(p, pageOffset(victim, pg.mem.PageSize()), pg.mem.PageSize())
	pg.onDi[victim] = true
	pg.st.DiskWrites++
}

// Stats returns a snapshot of pager counters.
func (pg *Pager) Stats() Stats { return pg.st }

func pageOffset(page node.PageID, pageSize int) int64 {
	return int64(page.Index) * int64(pageSize)
}
