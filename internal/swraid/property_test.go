package swraid

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/sim"
)

// TestRandomOpsMatchReferenceModel drives the array with random chunk
// writes and reads — injecting one store crash partway through — and
// checks every read against a plain in-memory reference model. RAID-1
// and RAID-5 must never return wrong data with a single failure. At the
// end the surviving stores' contents are checked host side against the
// model too (checkStores), which catches a reader writing into a chunk
// it shares with a store.
func TestRandomOpsMatchReferenceModel(t *testing.T) {
	const (
		chunkBytes = 256
		logical    = 24 // logical chunks in play
		ops        = 120
	)
	for _, level := range []Level{RAID1, RAID5} {
		for seed := int64(1); seed <= 5; seed++ {
			level, seed := level, seed
			t.Run(level.String(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := newRaidRig(t, level, 5, chunkBytes)
				ref := make(map[int64][]byte)
				crashAt := ops/3 + rng.Intn(ops/3)
				crashed := false
				dead := -1 // index into r.stores of the crashed store
				r.run(t, func(p *sim.Proc) {
					for op := 0; op < ops; op++ {
						if op == crashAt && !crashed {
							victim := 1 + rng.Intn(5)
							r.eps[victim].Detach()
							r.arr.MarkFailed(r.eps[victim].ID())
							crashed = true
							dead = victim - 1
						}
						l := int64(rng.Intn(logical))
						if rng.Intn(2) == 0 {
							// Write 1-3 contiguous chunks.
							n := 1 + rng.Intn(3)
							if l+int64(n) > logical {
								n = int(logical - l)
							}
							data := make([]byte, n*chunkBytes)
							rng.Read(data)
							if err := r.arr.WriteChunks(p, l, data); err != nil {
								t.Fatalf("op %d write: %v", op, err)
							}
							for i := 0; i < n; i++ {
								c := make([]byte, chunkBytes)
								copy(c, data[i*chunkBytes:])
								ref[l+int64(i)] = c
							}
						} else {
							got, err := r.arr.ReadChunks(p, l, 1)
							if err != nil {
								t.Fatalf("op %d read chunk %d: %v", op, l, err)
							}
							want, ok := ref[l]
							if !ok {
								want = make([]byte, chunkBytes)
							}
							if !bytes.Equal(got, want) {
								t.Fatalf("op %d: chunk %d differs from reference (crashed=%v)",
									op, l, crashed)
							}
						}
					}
				})
				checkStores(t, r, ref, logical, dead)
			})
		}
	}
}

// checkStores verifies, host side from Store.chunks, that every store
// but dead holds what the reference model says: each data chunk and
// RAID-1 mirror copy equals the model, and each RAID-5 stripe's parity
// equals the XOR of the model's data chunks. Reads share stored chunks
// with their callers, so a consumer that wrote into a read result has
// changed a stored chunk and fails here.
func checkStores(t *testing.T, r *raidRig, ref map[int64][]byte, logical int64, dead int) {
	t.Helper()
	cb := r.arr.cfg.ChunkBytes
	index := make(map[netsim.NodeID]int)
	for i, id := range r.arr.cfg.Stores {
		index[id] = i
	}
	want := func(l int64) []byte {
		if c, ok := ref[l]; ok {
			return c
		}
		return make([]byte, cb)
	}
	check := func(what string, store netsim.NodeID, off int64, want []byte) {
		s := index[store]
		if s == dead {
			return
		}
		got, ok := r.stores[s].chunks[off]
		if !ok {
			got = make([]byte, cb)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s on store %d at offset %#x differs from the model", what, s, off)
		}
	}
	for l := int64(0); l < logical; l++ {
		node, off, _, _ := r.arr.layout(l)
		check(fmt.Sprintf("chunk %d", l), node, off, want(l))
		if r.arr.cfg.Level == RAID1 {
			check(fmt.Sprintf("chunk %d mirror", l), r.arr.mirrorOf(l), mirrorOffset(off), want(l))
		}
	}
	if r.arr.cfg.Level != RAID5 {
		return
	}
	d := int64(r.arr.dataPerStripe())
	for stripe := int64(0); stripe*d < logical; stripe++ {
		parity := make([]byte, cb)
		for l := stripe * d; l < (stripe+1)*d; l++ {
			xorInto(parity, want(l))
		}
		_, off, _, parityNode := r.arr.layout(stripe * d)
		check(fmt.Sprintf("stripe %d parity", stripe), parityNode, off, parity)
	}
}

// TestRAID5ParityConsistentAfterRandomWrites writes random chunks, then
// crashes EVERY store in turn (one at a time, healing between) and
// verifies each chunk reconstructs — the parity must be consistent no
// matter which disk dies.
func TestRAID5ParityConsistentAfterRandomWrites(t *testing.T) {
	const chunkBytes = 128
	const logical = 16
	rng := rand.New(rand.NewSource(7))
	r := newRaidRig(t, RAID5, 5, chunkBytes)
	ref := make(map[int64][]byte)
	r.run(t, func(p *sim.Proc) {
		for op := 0; op < 60; op++ {
			l := int64(rng.Intn(logical))
			data := make([]byte, chunkBytes)
			rng.Read(data)
			if err := r.arr.WriteChunks(p, l, data); err != nil {
				t.Fatal(err)
			}
			ref[l] = append([]byte(nil), data...)
		}
		for victim := 0; victim < 5; victim++ {
			r.arr.MarkFailed(r.eps[victim+1].ID())
			for l := int64(0); l < logical; l++ {
				got, err := r.arr.ReadChunks(p, l, 1)
				if err != nil {
					t.Fatalf("victim %d chunk %d: %v", victim, l, err)
				}
				want, ok := ref[l]
				if !ok {
					want = make([]byte, chunkBytes)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("victim %d chunk %d: reconstruction wrong", victim, l)
				}
			}
			r.arr.MarkRepaired(r.eps[victim+1].ID())
		}
	})
}

// TestRebuildThenSecondFailure verifies the full lifecycle: fail, serve
// degraded, rebuild onto a spare, then survive a second (different)
// failure — the availability story the paper tells about software RAID
// having no central host.
func TestRebuildThenSecondFailure(t *testing.T) {
	const chunkBytes = 128
	r := newRaidRig(t, RAID5, 6, chunkBytes) // stores 1..6; use 1..5, 6 is spare
	arr, err := NewArray(r.eps[0], Config{
		Level: RAID5, ChunkBytes: chunkBytes,
		Stores: []netsim.NodeID{r.eps[1].ID(), r.eps[2].ID(), r.eps[3].ID(), r.eps[4].ID(), r.eps[5].ID()},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(12, chunkBytes, 9)
	r.run(t, func(p *sim.Proc) {
		if err := arr.WriteChunks(p, 0, data); err != nil {
			t.Fatal(err)
		}
		// First failure + rebuild onto the spare.
		r.eps[2].Detach()
		arr.MarkFailed(r.eps[2].ID())
		if err := arr.Rebuild(p, r.eps[2].ID(), r.eps[6].ID(), 3); err != nil {
			t.Fatal(err)
		}
		// Second failure of a different store: parity must still save us.
		r.eps[4].Detach()
		arr.MarkFailed(r.eps[4].ID())
		got, err := arr.ReadChunks(p, 0, 12)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data wrong after rebuild + second failure")
		}
	})
}
