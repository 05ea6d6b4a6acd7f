package swraid

import (
	"fmt"
	"sort"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/sim"
)

// parallel runs the given operations concurrently as child processes and
// waits for all of them — the array's fan-out primitive. Errors are
// collected per operation.
func (a *Array) parallel(p *sim.Proc, ops []func(wp *sim.Proc) error) []error {
	errs := make([]error, len(ops))
	wg := sim.NewWaitGroup(p.Engine(), "swraid/fanout")
	wg.Add(len(ops))
	for i, op := range ops {
		i, op := i, op
		p.Engine().Spawn("swraid/op", func(wp *sim.Proc) {
			defer wg.Done()
			errs[i] = op(wp)
		})
	}
	wg.Wait(p)
	return errs
}

// readChunk fetches one chunk from a store, returning its contents.
func (a *Array) readChunk(p *sim.Proc, store netsim.NodeID, offset int64) ([]byte, error) {
	if a.dead[store] {
		return nil, fmt.Errorf("swraid: store %d marked failed", store)
	}
	reply, err := a.ep.Call(p, store, hChunkRead,
		chunkReadArgs{offset: offset, length: a.cfg.ChunkBytes}, 32)
	if err != nil {
		a.dead[store] = true // crash detected via timeout
		return nil, err
	}
	data, ok := reply.([]byte)
	if !ok {
		return nil, fmt.Errorf("swraid: bad read reply from store %d", store)
	}
	return data, nil
}

// writeChunk stores one chunk.
func (a *Array) writeChunk(p *sim.Proc, store netsim.NodeID, offset int64, data []byte) error {
	if a.dead[store] {
		return fmt.Errorf("swraid: store %d marked failed", store)
	}
	_, err := a.ep.Call(p, store, hChunkWrite,
		chunkWriteArgs{offset: offset, data: data}, len(data))
	if err != nil {
		a.dead[store] = true
		return err
	}
	return nil
}

// ReadChunks reads count logical chunks starting at logical index start,
// in parallel across the stores, reconstructing through parity or
// mirrors where stores have failed. It returns the concatenated data;
// a single chunk is returned as read, shared with its store, so the
// result is read-only.
func (a *Array) ReadChunks(p *sim.Proc, start int64, count int) ([]byte, error) {
	logicals := make([]int64, count)
	for i := range logicals {
		logicals[i] = start + int64(i)
	}
	chunks, err := a.ReadVec(p, logicals)
	switch {
	case err != nil:
		return nil, err
	case count == 1:
		return chunks[0], nil
	}
	out := make([]byte, 0, count*a.cfg.ChunkBytes)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}

// ReadVec reads an arbitrary set of logical chunks — not necessarily
// contiguous — issuing every per-disk request concurrently and
// reconstructing through redundancy where stores have failed. It is the
// scatter counterpart of ReadChunks: a pipelined client hands the whole
// batch over at once and the array schedules all disks in parallel, so
// a stripe run completes in roughly one disk access rather than one per
// chunk. The returned chunks are shared with the stores (or, for a
// reconstruction, the array's own buffer) and are read-only.
func (a *Array) ReadVec(p *sim.Proc, logicals []int64) ([][]byte, error) {
	if len(logicals) == 0 {
		return nil, nil
	}
	a.reads++
	out := make([][]byte, len(logicals))
	ops := make([]func(wp *sim.Proc) error, len(logicals))
	for i := range logicals {
		i := i
		logical := logicals[i]
		ops[i] = func(wp *sim.Proc) error {
			data, err := a.readLogical(wp, logical)
			if err != nil {
				return err
			}
			out[i] = data
			return nil
		}
	}
	for _, err := range a.parallel(p, ops) {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readLogical reads one logical chunk, degrading as needed.
func (a *Array) readLogical(p *sim.Proc, logical int64) ([]byte, error) {
	node, off, stripe, parityNode := a.layout(logical)
	if !a.dead[node] {
		data, err := a.readChunk(p, node, off)
		if err == nil {
			return data, nil
		}
	}
	switch a.cfg.Level {
	case RAID1:
		mirror := a.mirrorOf(logical)
		data, err := a.readChunk(p, mirror, mirrorOffset(off))
		if err != nil {
			return nil, fmt.Errorf("%w: chunk %d primary and mirror failed", ErrDataLost, logical)
		}
		a.degraded++
		return data, nil
	case RAID5:
		data, err := a.reconstruct(p, stripe, node, parityNode)
		if err != nil {
			return nil, err
		}
		a.degraded++
		return data, nil
	default:
		return nil, fmt.Errorf("%w: chunk %d on failed store %d", ErrDataLost, logical, node)
	}
}

// reconstruct XORs the surviving chunks of a stripe to recover the
// chunk stored on lostNode.
func (a *Array) reconstruct(p *sim.Proc, stripe int64, lostNode, parityNode netsim.NodeID) ([]byte, error) {
	off := stripe * int64(a.cfg.ChunkBytes)
	acc := make([]byte, a.cfg.ChunkBytes)
	var survivors []netsim.NodeID
	for _, s := range a.cfg.Stores {
		if s != lostNode {
			survivors = append(survivors, s)
		}
	}
	_ = parityNode // parity participates like any survivor in the XOR
	ops := make([]func(wp *sim.Proc) error, len(survivors))
	parts := make([][]byte, len(survivors))
	for i, s := range survivors {
		i, s := i, s
		ops[i] = func(wp *sim.Proc) error {
			data, err := a.readChunk(wp, s, off)
			if err != nil {
				return err
			}
			parts[i] = data
			return nil
		}
	}
	for _, err := range a.parallel(p, ops) {
		if err != nil {
			return nil, fmt.Errorf("%w: second failure during reconstruction", ErrDataLost)
		}
	}
	for _, part := range parts {
		xorInto(acc, part)
	}
	return acc, nil
}

// WriteChunks writes count logical chunks starting at logical index
// start. data must be count*ChunkBytes long. Parity is maintained with
// read-modify-write for partial stripes and direct computation for full
// stripes.
func (a *Array) WriteChunks(p *sim.Proc, start int64, data []byte) error {
	count := len(data) / a.cfg.ChunkBytes
	if count*a.cfg.ChunkBytes != len(data) {
		return fmt.Errorf("swraid: write of %d bytes not chunk-aligned (%d)", len(data), a.cfg.ChunkBytes)
	}
	logicals := make([]int64, count)
	chunks := make([][]byte, count)
	for i := 0; i < count; i++ {
		logicals[i] = start + int64(i)
		chunks[i] = data[i*a.cfg.ChunkBytes : (i+1)*a.cfg.ChunkBytes]
	}
	a.writes++
	return a.writePairs(p, logicals, chunks)
}

// WriteVec writes an arbitrary (ascending, duplicate-free) set of
// logical chunks in one vectored operation: chunks sharing a RAID-5
// stripe are committed with a single parity update, and independent
// stripes are issued to the disks concurrently. This is the write-side
// fan-out primitive for group commit — a caller flushing a write-behind
// buffer gets aggregate-disk bandwidth rather than chunk-at-a-time
// latency.
func (a *Array) WriteVec(p *sim.Proc, logicals []int64, chunks [][]byte) error {
	if len(logicals) != len(chunks) {
		return fmt.Errorf("swraid: WriteVec of %d logicals with %d chunks", len(logicals), len(chunks))
	}
	for i, c := range chunks {
		if len(c) != a.cfg.ChunkBytes {
			return fmt.Errorf("swraid: WriteVec chunk %d is %d bytes, want %d", i, len(c), a.cfg.ChunkBytes)
		}
		if i > 0 && logicals[i] <= logicals[i-1] {
			return fmt.Errorf("swraid: WriteVec logicals not strictly ascending at %d", i)
		}
	}
	if len(logicals) == 0 {
		return nil
	}
	a.writes++
	return a.writePairs(p, logicals, chunks)
}

// writePairs dispatches (logical, chunk) pairs — already ascending —
// to the level-specific write strategy.
func (a *Array) writePairs(p *sim.Proc, logicals []int64, chunks [][]byte) error {
	switch a.cfg.Level {
	case RAID5:
		return a.writeRAID5(p, logicals, chunks)
	case RAID1:
		return a.writeRAID1(p, logicals, chunks)
	default:
		ops := make([]func(wp *sim.Proc) error, len(logicals))
		for i := range logicals {
			node, off, _, _ := a.layout(logicals[i])
			chunk := chunks[i]
			ops[i] = func(wp *sim.Proc) error { return a.writeChunk(wp, node, off, chunk) }
		}
		return firstError(a.parallel(p, ops))
	}
}

func (a *Array) writeRAID1(p *sim.Proc, logicals []int64, chunks [][]byte) error {
	ops := make([]func(wp *sim.Proc) error, 0, 2*len(logicals))
	for i := range logicals {
		logical := logicals[i]
		node, off, _, _ := a.layout(logical)
		mirror := a.mirrorOf(logical)
		chunk := chunks[i]
		type target struct {
			dst netsim.NodeID
			off int64
		}
		// The mirror copy lives in a separate disk region so it cannot
		// collide with the mirror node's own primary chunk for the same
		// stripe.
		for _, tg := range []target{{node, off}, {mirror, mirrorOffset(off)}} {
			tg := tg
			stripe := off / int64(a.cfg.ChunkBytes)
			ops = append(ops, func(wp *sim.Proc) error {
				err := a.writeChunk(wp, tg.dst, tg.off, chunk)
				if err != nil && !a.dead[tg.dst] {
					return err
				}
				if a.dead[tg.dst] {
					a.markRebuildDirty(stripe)
				}
				return nil // a dead replica is tolerable; data survives on the other
			})
		}
	}
	return firstError(a.parallel(p, ops))
}

// writeRAID5 groups the write by stripe. Full stripes compute parity
// from the new data; partial stripes read-modify-write. Stripes are
// committed concurrently (ascending logicals mean each stripe appears
// exactly once).
func (a *Array) writeRAID5(p *sim.Proc, logicals []int64, chunks [][]byte) error {
	d := int64(a.dataPerStripe())
	type stripeWrite struct {
		stripe   int64
		logicals []int64
		chunks   [][]byte
	}
	var stripes []stripeWrite
	for i := range logicals {
		logical := logicals[i]
		s := logical / d
		if len(stripes) == 0 || stripes[len(stripes)-1].stripe != s {
			stripes = append(stripes, stripeWrite{stripe: s})
		}
		sw := &stripes[len(stripes)-1]
		sw.logicals = append(sw.logicals, logical)
		sw.chunks = append(sw.chunks, chunks[i])
	}
	ops := make([]func(wp *sim.Proc) error, len(stripes))
	for i := range stripes {
		sw := stripes[i]
		ops[i] = func(wp *sim.Proc) error { return a.writeStripe(wp, sw.stripe, sw.logicals, sw.chunks) }
	}
	return firstError(a.parallel(p, ops))
}

func (a *Array) writeStripe(p *sim.Proc, stripe int64, logicals []int64, chunks [][]byte) error {
	d := int64(a.dataPerStripe())
	cb := a.cfg.ChunkBytes
	off := stripe * int64(cb)
	_, _, _, parityNode := a.layout(stripe * d)

	newData := make(map[int64][]byte, len(logicals))
	targetDead := false
	for i, logical := range logicals {
		newData[logical] = chunks[i]
		if node, _, _, _ := a.layout(logical); a.dead[node] {
			targetDead = true
		}
	}

	// Degraded case 1: the stripe's parity store is dead. No parity can
	// be maintained; write the live data chunks directly. A dead data
	// target on top of a dead parity is a double failure.
	if a.dead[parityNode] {
		ops := make([]func(wp *sim.Proc) error, 0, len(logicals))
		for i, logical := range logicals {
			node, noff, _, _ := a.layout(logical)
			if a.dead[node] {
				return fmt.Errorf("%w: stripe %d lost parity and data stores", ErrDataLost, stripe)
			}
			chunk := chunks[i]
			ops = append(ops, func(wp *sim.Proc) error { return a.writeChunk(wp, node, noff, chunk) })
		}
		if err := firstError(a.parallel(p, ops)); err != nil {
			return err
		}
		a.markRebuildDirty(stripe)
		return nil
	}

	parity := make([]byte, cb)
	switch {
	case int64(len(logicals)) == d:
		// Full stripe: parity = XOR of new data. A dead data target's
		// content lives implicitly in the parity.
		for _, c := range chunks {
			xorInto(parity, c)
		}
	case targetDead:
		// Degraded reconstruct-write: a written chunk's store is dead,
		// so its content can only live in the parity. Read the stripe's
		// surviving, unwritten data chunks and recompute parity over the
		// whole stripe's new contents.
		for l := stripe * d; l < (stripe+1)*d; l++ {
			if c, ok := newData[l]; ok {
				xorInto(parity, c)
				continue
			}
			node, noff, _, _ := a.layout(l)
			if a.dead[node] {
				return fmt.Errorf("%w: stripe %d has two dead data stores", ErrDataLost, stripe)
			}
			oldD, err := a.readChunk(p, node, noff)
			if err != nil {
				return fmt.Errorf("swraid: reconstruct-write read: %w", err)
			}
			xorInto(parity, oldD)
		}
	default:
		// Healthy partial stripe: classic read-modify-write.
		oldP, err := a.readChunk(p, parityNode, off)
		if err != nil {
			return fmt.Errorf("swraid: parity RMW read: %w", err)
		}
		copy(parity, oldP)
		for i, logical := range logicals {
			node, noff, _, _ := a.layout(logical)
			oldD, err := a.readChunk(p, node, noff)
			if err != nil {
				return fmt.Errorf("swraid: data RMW read: %w", err)
			}
			xorInto(parity, oldD)
			xorInto(parity, chunks[i])
		}
	}
	ops := make([]func(wp *sim.Proc) error, 0, len(logicals)+1)
	for i, logical := range logicals {
		node, noff, _, _ := a.layout(logical)
		if a.dead[node] {
			continue // content carried by the recomputed parity
		}
		chunk := chunks[i]
		ops = append(ops, func(wp *sim.Proc) error { return a.writeChunk(wp, node, noff, chunk) })
	}
	ops = append(ops, func(wp *sim.Proc) error { return a.writeChunk(wp, parityNode, off, parity) })
	if err := firstError(a.parallel(p, ops)); err != nil {
		return err
	}
	if targetDead {
		a.markRebuildDirty(stripe)
	}
	return nil
}

// markRebuildDirty records, while a rebuild is in flight, that a
// degraded write landed on stripe: its dead chunk now lives only in the
// (new) parity, so the rebuild must reconstruct that stripe again even
// if its copy pass already visited it.
func (a *Array) markRebuildDirty(stripe int64) {
	if a.rebuildDirty != nil {
		a.rebuildDirty[stripe] = true
	}
}

// Rebuild reconstructs every stripe's lost chunk onto the replacement
// store (which must already run a Store and be reachable), then marks
// the failed node repaired in the layout by substituting replacement for
// failed in the store list. stripes is the number of stripes to rebuild
// (the array does not track a high-water mark; callers know their
// extent).
func (a *Array) Rebuild(p *sim.Proc, failed, replacement netsim.NodeID, stripes int64) error {
	sp := a.obs.StartSpan("raid.rebuild", int(replacement))
	if sp != 0 {
		a.obs.Annotate(sp, fmt.Sprintf("store %d → %d, %d stripes", failed, replacement, stripes))
	}
	defer a.obs.EndSpan(sp)
	if a.cfg.Level == RAID0 {
		return fmt.Errorf("%w: RAID-0 cannot rebuild", ErrDataLost)
	}
	idx := -1
	for i, s := range a.cfg.Stores {
		if s == failed {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("swraid: store %d not in array", failed)
	}
	if !a.dead[failed] {
		return fmt.Errorf("swraid: store %d: %w", failed, ErrNotDegraded)
	}
	cb := int64(a.cfg.ChunkBytes)
	copyStripe := func(s int64) error {
		off := s * cb
		var data []byte
		var err error
		switch a.cfg.Level {
		case RAID5:
			_, _, _, parityNode := a.layout(s * int64(a.dataPerStripe()))
			data, err = a.reconstruct(p, s, failed, parityNode)
		case RAID1:
			// The failed node's primary chunk for stripe s lives mirrored
			// on the next node in the ring, in the mirror region.
			next := a.cfg.Stores[(idx+1)%a.n()]
			data, err = a.readChunk(p, next, mirrorOffset(off))
		}
		if err != nil {
			return err
		}
		if err := a.writeChunk(p, replacement, off, data); err != nil {
			return err
		}
		if a.cfg.Level == RAID1 {
			// Also restore the mirror copies the failed node held: the
			// primaries of the previous node in the ring.
			prev := a.cfg.Stores[(idx-1+a.n())%a.n()]
			data, err := a.readChunk(p, prev, off)
			if err != nil {
				return err
			}
			if err := a.writeChunk(p, replacement, mirrorOffset(off), data); err != nil {
				return err
			}
		}
		return nil
	}
	a.rebuildDirty = make(map[int64]bool)
	defer func() { a.rebuildDirty = nil }()
	for s := int64(0); s < stripes; s++ {
		if err := copyStripe(s); err != nil {
			return err
		}
	}
	// Catch-up: writes that landed while the copy pass ran left their
	// dead chunk in parity only — the stripe on the replacement is
	// stale. Re-reconstruct those stripes (repeatedly: a catch-up pass
	// can itself be overtaken by new writes) before swapping the layout.
	for len(a.rebuildDirty) > 0 {
		dirty := make([]int64, 0, len(a.rebuildDirty))
		for s := range a.rebuildDirty {
			dirty = append(dirty, s)
		}
		sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
		a.rebuildDirty = make(map[int64]bool)
		if sp != 0 {
			a.obs.Annotate(sp, fmt.Sprintf("catch-up: %d stripe(s) dirtied during copy", len(dirty)))
		}
		for _, s := range dirty {
			if err := copyStripe(s); err != nil {
				return err
			}
		}
	}
	a.cfg.Stores[idx] = replacement
	a.MarkRepaired(failed)
	a.MarkRepaired(replacement)
	return nil
}

// AdoptReplacement updates the layout after some OTHER array view has
// already rebuilt failed's data onto replacement: it substitutes the
// store in the layout and clears failure marks without copying any
// data. All views of a shared array must converge on the same layout.
func (a *Array) AdoptReplacement(failed, replacement netsim.NodeID) error {
	for i, s := range a.cfg.Stores {
		if s == failed {
			a.cfg.Stores[i] = replacement
			a.MarkRepaired(failed)
			a.MarkRepaired(replacement)
			return nil
		}
	}
	return fmt.Errorf("swraid: store %d not in array", failed)
}

// mirrorOffset maps a primary chunk offset into the disk's mirror
// region (top of the address space), keeping replica copies disjoint
// from the node's own primaries.
func mirrorOffset(off int64) int64 { return off | 1<<40 }

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
