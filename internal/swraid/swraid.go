// Package swraid implements redundant arrays of workstation disks: the
// paper's "RAID in software, writing data redundantly across an array of
// disks in each of the network's workstations", with the fast network as
// the I/O backplane. Unlike a hardware RAID there is no central host to
// fail — any client drives the array directly, and when a workstation
// crashes its data is served degraded through parity and rebuilt onto a
// replacement.
//
// Data is real: stores keep chunk contents and parity is actual XOR, so
// tests verify end-to-end integrity through failures, not just timing.
// Three layouts are provided: RAID0 striping, RAID1 chained-declustered
// mirroring, and RAID5 rotating parity.
//
// Chunks are immutable once stored: a write stores a fresh copy and
// never changes it afterwards. Reads therefore share them instead of
// copying: a Store's read reply, a single-chunk ReadChunks and every
// ReadVec element are the stored chunk itself (or a buffer of the
// array's own, for a reconstruction). Callers must treat read results
// as read-only and copy before changing them.
package swraid

import (
	"errors"
	"fmt"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/obs"
	"github.com/nowproject/now/internal/proto/am"
	"github.com/nowproject/now/internal/sim"
)

// Level is the redundancy scheme.
type Level int

const (
	// RAID0 stripes with no redundancy: fastest, fails on any crash.
	RAID0 Level = iota
	// RAID1 mirrors each chunk on the next node (chained declustering).
	RAID1
	// RAID5 rotates XOR parity across the stripe group.
	RAID5
)

// String names the level.
func (l Level) String() string {
	switch l {
	case RAID0:
		return "RAID-0"
	case RAID1:
		return "RAID-1"
	case RAID5:
		return "RAID-5"
	default:
		return fmt.Sprintf("RAID(%d)", int(l))
	}
}

// AM handlers (swraid owns 0x50–0x5F).
const (
	hChunkRead am.HandlerID = 0x50 + iota
	hChunkWrite
)

// ErrDataLost is returned when a read cannot be satisfied: more failures
// than the redundancy level tolerates.
var ErrDataLost = errors.New("swraid: data lost (insufficient redundancy)")

// ErrNotDegraded is returned by Rebuild when the store named as failed
// is not actually marked failed: "rebuilding" from an array that still
// trusts that store would copy healthy data while racing live writes to
// it — almost certainly a wrong store id. Callers must MarkFailed (or
// let a timeout do it) before rebuilding.
var ErrNotDegraded = errors.New("swraid: rebuild source not marked failed")

// Store serves chunk reads and writes from one workstation's disk. All
// storage nodes of an array run a Store.
type Store struct {
	ep     *am.Endpoint
	chunks map[int64][]byte
}

// NewStore installs the storage handlers on ep's node.
func NewStore(ep *am.Endpoint) *Store {
	s := &Store{ep: ep, chunks: make(map[int64][]byte)}
	ep.Register(hChunkRead, s.onRead)
	ep.Register(hChunkWrite, s.onWrite)
	return s
}

type chunkReadArgs struct {
	offset int64
	length int
}

type chunkWriteArgs struct {
	offset int64
	data   []byte
}

// onRead replies with the stored chunk itself, not a copy: onWrite
// never changes a chunk once stored, so the reply is shared and
// read-only.
func (s *Store) onRead(p *sim.Proc, m am.Msg) (any, int) {
	args := m.Arg.(chunkReadArgs)
	// Sequential within a chunk; chunks are placed at their offsets so
	// the disk model can recognise streaming access patterns.
	s.ep.Node().Disk.ReadSeq(p, args.offset, args.length)
	data, ok := s.chunks[args.offset]
	if !ok {
		data = make([]byte, args.length) // unwritten space reads as zeros
	}
	return data, args.length
}

// onWrite stores a private copy of the data: the writer may reuse its
// buffer, and readers share the stored chunk.
func (s *Store) onWrite(p *sim.Proc, m am.Msg) (any, int) {
	args := m.Arg.(chunkWriteArgs)
	s.ep.Node().Disk.WriteSeq(p, args.offset, len(args.data))
	buf := make([]byte, len(args.data))
	copy(buf, args.data)
	s.chunks[args.offset] = buf
	return true, 8
}

// Config shapes an array.
type Config struct {
	// Level is the redundancy scheme.
	Level Level
	// ChunkBytes is the striping unit per disk.
	ChunkBytes int
	// Stores are the storage nodes, in layout order.
	Stores []netsim.NodeID
}

// Array is a client's view of a software RAID. Multiple arrays (on
// different client nodes) may address the same stores.
type Array struct {
	ep   *am.Endpoint
	cfg  Config
	dead map[netsim.NodeID]bool

	// rebuildDirty is non-nil only while a Rebuild is in flight: it
	// collects stripes that degraded writes touched after the copy pass
	// may already have passed them, so the rebuild can re-reconstruct
	// them before swapping the layout (a write-during-rebuild otherwise
	// survives only in parity, which the swapped layout no longer reads).
	rebuildDirty map[int64]bool

	reads, writes, degraded int64

	obs *obs.Registry // nil unless Instrument attached a registry
}

// NewArray creates a client view. RAID5 needs at least 3 stores, RAID1
// at least 2.
func NewArray(ep *am.Endpoint, cfg Config) (*Array, error) {
	if cfg.ChunkBytes <= 0 {
		return nil, fmt.Errorf("swraid: chunk size %d", cfg.ChunkBytes)
	}
	min := 1
	switch cfg.Level {
	case RAID1:
		min = 2
	case RAID5:
		min = 3
	}
	if len(cfg.Stores) < min {
		return nil, fmt.Errorf("swraid: %s needs ≥%d stores, have %d", cfg.Level, min, len(cfg.Stores))
	}
	return &Array{ep: ep, cfg: cfg, dead: make(map[netsim.NodeID]bool)}, nil
}

// Config returns the array's layout.
func (a *Array) Config() Config { return a.cfg }

// MarkFailed records that a store crashed; subsequent I/O avoids it and
// uses redundancy.
func (a *Array) MarkFailed(id netsim.NodeID) { a.dead[id] = true }

// MarkRepaired clears a failure mark (after Rebuild).
func (a *Array) MarkRepaired(id netsim.NodeID) { delete(a.dead, id) }

// FailedStores lists the stripe members currently marked failed, in id
// order — empty when the array is healthy. Only stores in the layout
// count: a failure mark left by a node outside the stripe (a crashed
// spare, a replaced member) does not make the array degraded.
func (a *Array) FailedStores() []netsim.NodeID {
	var out []netsim.NodeID
	for _, id := range a.cfg.Stores {
		if a.dead[id] {
			out = append(out, id)
		}
	}
	return out
}

// Stats returns (reads, writes, degradedReads).
func (a *Array) Stats() (reads, writes, degraded int64) {
	return a.reads, a.writes, a.degraded
}

// n is the number of stores.
func (a *Array) n() int { return len(a.cfg.Stores) }

// dataPerStripe is the number of data chunks per stripe.
func (a *Array) dataPerStripe() int {
	if a.cfg.Level == RAID5 {
		return a.n() - 1
	}
	return a.n()
}

// layout maps a logical chunk index to (node, node-local offset) and,
// for RAID5, identifies the stripe's parity node.
func (a *Array) layout(logical int64) (dataNode netsim.NodeID, nodeOffset int64, stripe int64, parityNode netsim.NodeID) {
	n := int64(a.n())
	switch a.cfg.Level {
	case RAID5:
		d := n - 1
		stripe = logical / d
		pos := logical % d
		pIdx := n - 1 - stripe%n
		idx := pos
		if idx >= pIdx {
			idx++ // skip the parity slot
		}
		return a.cfg.Stores[idx], stripe * int64(a.cfg.ChunkBytes), stripe, a.cfg.Stores[pIdx]
	default:
		stripe = logical / n
		idx := logical % n
		return a.cfg.Stores[idx], stripe * int64(a.cfg.ChunkBytes), stripe, 0
	}
}

// mirrorOf returns the RAID1 replica node for a logical chunk (chained
// declustering: the next node in the ring).
func (a *Array) mirrorOf(logical int64) netsim.NodeID {
	n := int64(a.n())
	idx := (logical%n + 1) % n
	return a.cfg.Stores[idx]
}

func xorInto(dst, src []byte) {
	for i := range src {
		dst[i] ^= src[i]
	}
}
