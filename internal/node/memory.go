package node

import (
	"github.com/nowproject/now/internal/lru"
)

// PageID names a virtual page globally: the high bits identify an
// address space (process/file), the low bits the page index within it.
type PageID struct {
	Space uint32
	Index uint32
}

// Memory models DRAM as a fixed pool of page frames under LRU
// replacement, with per-page dirty bits. It is purely a bookkeeping
// structure — the *time* to service a fault is charged by whoever
// services it (disk, network RAM, file cache).
type Memory struct {
	pageSize int
	frames   *lru.Cache[PageID, bool] // value: dirty

	hits, misses int64
	reserved     int // frames removed from the pool (e.g. saved for an interactive user)
}

// NewMemory builds a memory of size bytes with the given page size.
func NewMemory(size int64, pageSize int) *Memory {
	if pageSize <= 0 {
		pageSize = 4096
	}
	frames := int(size / int64(pageSize))
	if frames <= 0 {
		frames = 1
	}
	return &Memory{pageSize: pageSize, frames: lru.New[PageID, bool](frames)}
}

// PageSize returns the page size in bytes.
func (m *Memory) PageSize() int { return m.pageSize }

// Touch references page, returning fault=true when it was not resident.
// On a fault the page becomes resident (write sets the dirty bit) and,
// if a frame had to be reclaimed, the victim is returned so the caller
// can write it back when dirty.
func (m *Memory) Touch(page PageID, write bool) (fault bool, victim PageID, victimDirty bool, evicted bool) {
	if dirty, ok := m.frames.Get(page); ok {
		m.hits++
		if write && !dirty {
			m.frames.Put(page, true)
		}
		return false, victim, false, false
	}
	m.misses++
	vk, vd, ev := m.frames.Put(page, write)
	return true, vk, vd, ev
}

// Resize changes the frame pool (e.g. GLUnix reserving memory for the
// interactive user), returning pages evicted oldest-first.
func (m *Memory) Resize(frames int) []PageID {
	return m.frames.Resize(frames)
}

// FlushAll removes every resident page, returning the dirty ones —
// used when saving an idle machine's memory image before recruitment.
func (m *Memory) FlushAll() (dirty []PageID, all []PageID) {
	keys := m.frames.Keys()
	for _, k := range keys {
		d, _ := m.frames.Remove(k)
		all = append(all, k)
		if d {
			dirty = append(dirty, k)
		}
	}
	return dirty, all
}

// HitRate returns hits/(hits+misses) since creation.
func (m *Memory) HitRate() float64 {
	total := m.hits + m.misses
	if total == 0 {
		return 0
	}
	return float64(m.hits) / float64(total)
}
