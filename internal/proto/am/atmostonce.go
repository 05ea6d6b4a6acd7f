package am

import (
	"cmp"
	"slices"
)

// Caller is the caller half: endpoint-global sequence numbers and the
// unsettled calls in sequence order, each with its peer and the
// transport's state v. The zero value is ready to use.
type Caller[K comparable, V any] struct {
	seq  uint64
	open []openCall[K, V]
}

type openCall[K comparable, V any] struct {
	seq  uint64
	peer K
	v    V
}

// Open numbers a new call to peer and records it unsettled.
func (c *Caller[K, V]) Open(peer K, v V) uint64 {
	c.seq++
	c.open = append(c.open, openCall[K, V]{c.seq, peer, v})
	return c.seq
}

func (c *Caller[K, V]) find(seq uint64) (int, bool) {
	return slices.BinarySearchFunc(c.open, seq, func(oc openCall[K, V], s uint64) int { return cmp.Compare(oc.seq, s) })
}

// Get returns the state of unsettled call seq.
func (c *Caller[K, V]) Get(seq uint64) (v V, ok bool) {
	if i, ok := c.find(seq); ok {
		return c.open[i].v, true
	}
	return v, false
}

// Settle retires seq, answered or abandoned; no copy may follow.
func (c *Caller[K, V]) Settle(seq uint64) {
	if i, ok := c.find(seq); ok {
		c.open = slices.Delete(c.open, i, i+1)
	}
}

// Watermark is the lowest unsettled sequence number to peer, or the
// next one if none is unsettled.
func (c *Caller[K, V]) Watermark(peer K) uint64 {
	for _, oc := range c.open {
		if oc.peer == peer {
			return oc.seq
		}
	}
	return c.seq + 1
}

// Unsettled returns the state of every unsettled call in sequence order.
func (c *Caller[K, V]) Unsettled() []V {
	vs := make([]V, len(c.open))
	for i, oc := range c.open {
		vs[i] = oc.v
	}
	return vs
}

// Verdict is what an arriving request gets.
type Verdict uint8

const (
	Execute Verdict = iota // first copy: run the handler, then Finish
	Replay                 // finished: resend the cached reply
	Drop                   // still running, or below the floor
)

// Callee is the callee half: per source, a floor (the highest watermark
// seen) and a window of the calls at or above it, each in progress or
// done with its cached reply. The zero value is ready to use.
type Callee[K comparable] struct {
	srcs map[K]*window
}

type window struct {
	floor uint64
	ents  map[uint64]entry // by value: no allocation per request
}

type entry struct {
	done  bool
	reply any
	bytes int
}

// Admit decides what request seq from src gets. Its watermark, when
// above the floor, raises the floor and prunes the window; nothing
// else prunes it.
func (c *Callee[K]) Admit(src K, seq, watermark uint64) (v Verdict, reply any, bytes int) {
	w := c.srcs[src]
	if w == nil {
		if c.srcs == nil {
			c.srcs = make(map[K]*window)
		}
		w = &window{ents: make(map[uint64]entry)}
		c.srcs[src] = w
	}
	if watermark > w.floor {
		w.floor = watermark
		for s := range w.ents {
			if s < watermark {
				delete(w.ents, s)
			}
		}
	}
	e, ok := w.ents[seq]
	switch {
	case seq < w.floor || ok && !e.done:
		return Drop, nil, 0
	case ok:
		return Replay, e.reply, e.bytes
	}
	w.ents[seq] = entry{}
	return Execute, nil, 0
}

// Finish caches the reply of a call Admit let execute, unless the
// floor passed the call while it ran (its caller gave up).
func (c *Callee[K]) Finish(src K, seq uint64, reply any, bytes int) {
	w := c.srcs[src]
	if _, ok := w.ents[seq]; ok {
		w.ents[seq] = entry{true, reply, bytes}
	}
}

// Window returns how many calls from src the callee holds.
func (c *Callee[K]) Window(src K) int {
	if w := c.srcs[src]; w != nil {
		return len(w.ents)
	}
	return 0
}
