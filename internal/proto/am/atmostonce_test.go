package am

import (
	"math/rand"
	"testing"
)

// runDedup drives three callers and one callee through an op stream
// and checks the ledger's contract after every step. Each byte picks
// an op, a source and an operand. Requests and replies travel in FIFO
// queues per (src, dst) pair that may lose or duplicate the head
// message but never reorder — the precondition the ledger states.
func runDedup(t *testing.T, ops []byte) {
	t.Helper()
	const nsrc = 3
	const callee = 0 // the callers' one peer
	type req struct{ seq, watermark uint64 }
	type rep struct {
		seq   uint64
		reply any
		bytes int
	}
	type call struct {
		src int
		seq uint64
	}
	want := func(c call) (any, int) { return uint64(c.src)<<32 | c.seq, int(c.seq % 7) }

	var (
		d        Callee[int]
		callers  [nsrc]Caller[int, *uint64] // state: the call's own seq
		toCallee [nsrc][]req
		toCaller [nsrc][]rep
		running  []call
		ran      = map[call]bool{}
		floor    [nsrc]uint64
		highest  [nsrc]uint64
	)
	send := func(src int, seq uint64) {
		toCallee[src] = append(toCallee[src], req{seq, callers[src].Watermark(callee)})
	}
	open := func(src int) {
		s := new(uint64)
		*s = callers[src].Open(callee, s)
		send(src, *s)
	}
	pick := func(src, n int) (uint64, bool) {
		un := callers[src].Unsettled()
		if len(un) == 0 {
			return 0, false
		}
		return *un[n%len(un)], true
	}
	admit := func(src int, q req) {
		c := call{src, q.seq}
		v, reply, bytes := d.Admit(src, q.seq, q.watermark)
		floor[src] = max(floor[src], q.watermark)
		highest[src] = max(highest[src], q.seq)
		switch v {
		case Execute:
			if ran[c] {
				t.Fatalf("src %d seq %d executed twice", src, q.seq)
			}
			ran[c] = true
			running = append(running, c)
		case Replay:
			if wr, wb := want(c); reply != wr || bytes != wb {
				t.Fatalf("src %d seq %d replayed (%v, %d), want (%v, %d)", src, q.seq, reply, bytes, wr, wb)
			}
			toCaller[src] = append(toCaller[src], rep{q.seq, reply, bytes})
		}
		if n, bound := d.Window(src), int64(highest[src])-int64(floor[src])+1; int64(n) > bound {
			t.Fatalf("src %d window holds %d entries, bound %d (highest %d, floor %d)",
				src, n, bound, highest[src], floor[src])
		}
	}
	finish := func(i int) {
		c := running[i]
		running = append(running[:i], running[i+1:]...)
		reply, bytes := want(c)
		d.Finish(c.src, c.seq, reply, bytes)
		toCaller[c.src] = append(toCaller[c.src], rep{c.seq, reply, bytes})
	}
	answer := func(src int, r rep) {
		if _, ok := callers[src].Get(r.seq); !ok {
			return // duplicate, or the call was abandoned
		}
		if wr, wb := want(call{src, r.seq}); r.reply != wr || r.bytes != wb {
			t.Fatalf("src %d seq %d answered (%v, %d), want (%v, %d)", src, r.seq, r.reply, r.bytes, wr, wb)
		}
		callers[src].Settle(r.seq)
	}

	for _, b := range ops {
		src, n := int(b/8)%nsrc, int(b/24)
		switch b % 8 {
		case 0: // first send of a new call
			open(src)
		case 1: // retransmit an unsettled call
			if seq, ok := pick(src, n); ok {
				send(src, seq)
			}
		case 2, 3: // deliver the head request; 3 duplicates it
			if q := toCallee[src]; len(q) > 0 {
				admit(src, q[0])
				if b%8 == 2 {
					toCallee[src] = q[1:]
				}
			}
		case 4: // lose the head request
			if len(toCallee[src]) > 0 {
				toCallee[src] = toCallee[src][1:]
			}
		case 5: // a running handler finishes
			if len(running) > 0 {
				finish(n % len(running))
			}
		case 6: // the head reply is delivered, duplicated or lost
			if q := toCaller[src]; len(q) > 0 {
				if n%3 != 2 {
					answer(src, q[0])
				}
				if n%3 != 1 {
					toCaller[src] = q[1:]
				}
			}
		case 7: // the caller gives up on a call
			if seq, ok := pick(src, n); ok {
				callers[src].Settle(seq)
			}
		}
	}

	// Settle everything over a lossless network, then one more call per
	// source carries a watermark past every settled call.
	flush := func() {
		for len(running) > 0 {
			finish(0)
		}
		for src := 0; src < nsrc; src++ {
			for _, q := range toCallee[src] {
				admit(src, q)
			}
			toCallee[src] = nil
		}
		for len(running) > 0 {
			finish(0)
		}
		for src := 0; src < nsrc; src++ {
			for _, r := range toCaller[src] {
				answer(src, r)
			}
			toCaller[src] = nil
		}
	}
	flush()
	for src := 0; src < nsrc; src++ {
		for _, s := range callers[src].Unsettled() {
			send(src, *s)
		}
	}
	flush()
	for src := 0; src < nsrc; src++ {
		if un := callers[src].Unsettled(); len(un) > 0 {
			t.Fatalf("src %d: %d calls unsettled after a lossless retry", src, len(un))
		}
		open(src)
	}
	flush()
	for src := 0; src < nsrc; src++ {
		if n := d.Window(src); n > 1 {
			t.Fatalf("src %d: window holds %d entries once every call settled", src, n)
		}
	}
}

// dedupOps is a seeded op stream for runDedup.
func dedupOps(seed int64, n int) []byte {
	ops := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestDedupProperty: across seeded interleavings of sends, retransmits,
// losses, duplicates, handler completions and abandoned calls, every
// call executes at most once, every replay returns the cached reply,
// the callee's window stays within (highest seq − floor + 1), and it
// drains to at most one entry once every call settles.
func TestDedupProperty(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		runDedup(t, dedupOps(seed, 600))
	}
}

// FuzzDedup feeds arbitrary op streams to runDedup. The seed corpus
// runs under plain go test; go test -fuzz=FuzzDedup explores further.
func FuzzDedup(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(dedupOps(seed, 200))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runDedup(t, ops) })
}
