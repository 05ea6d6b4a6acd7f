package lru

import (
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
	if len(c.entries) != 2 {
		t.Fatalf("Len = %d", len(c.entries))
	}
}

func TestEvictsLeastRecent(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Get(1) // 2 is now LRU
	k, v, ev := c.Put(3, 30)
	if !ev || k != 2 || v != 20 {
		t.Fatalf("evicted (%d,%d,%v), want (2,20,true)", k, v, ev)
	}
	if _, ok := c.Peek(2); ok {
		t.Fatal("evicted key still resident")
	}
	if _, ok1 := c.Peek(1); !ok1 {
		t.Fatal("wrong residents")
	}
	if _, ok3 := c.Peek(3); !ok3 {
		t.Fatal("wrong residents")
	}
}

func TestPutExistingUpdatesWithoutEviction(t *testing.T) {
	c := New[int, int](1)
	c.Put(1, 10)
	_, _, ev := c.Put(1, 11)
	if ev {
		t.Fatal("update evicted")
	}
	if v, _ := c.Get(1); v != 11 {
		t.Fatalf("v = %d", v)
	}
}

func TestPeekDoesNotTouchRecency(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Peek(1) // must NOT protect 1
	k, _, ev := c.Put(3, 30)
	if !ev || k != 1 {
		t.Fatalf("evicted %d, want 1", k)
	}
}

func TestRemove(t *testing.T) {
	c := New[string, int](4)
	c.Put("x", 1)
	if v, ok := c.Remove("x"); !ok || v != 1 {
		t.Fatalf("Remove = %d,%v", v, ok)
	}
	if _, ok := c.Remove("x"); ok {
		t.Fatal("double remove succeeded")
	}
	if len(c.entries) != 0 {
		t.Fatalf("Len = %d", len(c.entries))
	}
}

// TestVictim pins which key a full cache gives up: none while there is
// room, then the least recently used one, whatever its insertion order.
func TestVictim(t *testing.T) {
	c := New[int, int](2)
	if _, _, ev := c.Put(1, 0); ev {
		t.Fatal("cache with room evicted")
	}
	c.Put(2, 0)
	c.Get(1)
	if k, _, ev := c.Put(3, 0); !ev || k != 2 {
		t.Fatalf("victim = %d,%v, want 2", k, ev)
	}
}

func TestKeysMRUOrder(t *testing.T) {
	c := New[int, int](3)
	c.Put(1, 0)
	c.Put(2, 0)
	c.Put(3, 0)
	c.Get(1)
	keys := c.Keys()
	want := []int{1, 3, 2}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
}

func TestResizeEvictsOldestFirst(t *testing.T) {
	c := New[int, int](4)
	for i := 1; i <= 4; i++ {
		c.Put(i, i)
	}
	ev := c.Resize(2)
	if len(ev) != 2 || ev[0] != 1 || ev[1] != 2 {
		t.Fatalf("evicted = %v", ev)
	}
	if c.capacity != 2 || len(c.entries) != 2 {
		t.Fatalf("cap=%d len=%d", c.capacity, len(c.entries))
	}
	// Growing evicts nothing.
	if ev := c.Resize(10); len(ev) != 0 {
		t.Fatalf("grow evicted %v", ev)
	}
}

func TestCapacityClampedPositive(t *testing.T) {
	c := New[int, int](0)
	if c.capacity != 1 {
		t.Fatalf("cap = %d", c.capacity)
	}
}

// Property: Len never exceeds capacity, and the most recently Put key is
// always resident.
func TestLRUInvariantsProperty(t *testing.T) {
	f := func(ops []uint8, capRaw uint8) bool {
		capacity := int(capRaw)%16 + 1
		c := New[uint8, int](capacity)
		for i, k := range ops {
			c.Put(k, i)
			if len(c.entries) > capacity {
				return false
			}
			if _, ok := c.Peek(k); !ok {
				return false
			}
		}
		return len(c.Keys()) == len(c.entries)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with capacity >= distinct keys, nothing is ever evicted.
func TestNoEvictionWhenFitsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New[uint8, int](256)
		for i, k := range ops {
			if _, _, ev := c.Put(k, i); ev {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPutOnFullCacheDoesNotAllocate checks that replacement on a full
// cache reuses the evicted entry instead of allocating a new one.
func TestPutOnFullCacheDoesNotAllocate(t *testing.T) {
	const capacity = 64
	c := New[int, int](capacity)
	k := 0
	for ; k < 4*capacity; k++ {
		c.Put(k, k)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, v, evicted := c.Put(k, k); !evicted || v != k-capacity {
			t.Fatalf("Put(%d) evicted %d, %v; want %d, true", k, v, evicted, k-capacity)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("Put on a full cache: %.2f allocs/op, want 0", allocs)
	}
}
