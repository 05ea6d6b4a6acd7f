package netsim

import (
	"testing"

	"github.com/nowproject/now/internal/sim"
)

// routeOf is a test helper: one route as a fresh slice.
func routeOf(t Topology, src, dst NodeID) []int {
	return t.Route(src, dst, nil)
}

// TestFatTreeRoutes pins the structural invariants of fat-tree routing:
// every link id in range, same-leaf pairs switch locally (no internal
// links), cross-leaf routes climb and descend symmetrically, and the
// route is deterministic.
func TestFatTreeRoutes(t *testing.T) {
	topo, err := NewFatTree(64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ft := topo.(*fatTree)
	for src := NodeID(0); src < 64; src++ {
		for dst := NodeID(0); dst < 64; dst++ {
			r := routeOf(topo, src, dst)
			for _, li := range r {
				if li < 0 || li >= topo.NumLinks() {
					t.Fatalf("route %d→%d: link %d out of range [0,%d)", src, dst, li, topo.NumLinks())
				}
			}
			if ft.leafOf(src) == ft.leafOf(dst) {
				if len(r) != 0 {
					t.Fatalf("same-leaf route %d→%d has %d internal links", src, dst, len(r))
				}
			} else if len(r) == 0 || len(r)%2 != 0 {
				t.Fatalf("cross-leaf route %d→%d has %d links (want even > 0)", src, dst, len(r))
			}
			again := routeOf(topo, src, dst)
			for i := range r {
				if r[i] != again[i] {
					t.Fatalf("route %d→%d not deterministic", src, dst)
				}
			}
		}
	}
	// 64 hosts, arity 4: 16 leaves, 4 aggregates, 1 root = 21 switches;
	// 20 non-root switches × 4 up + 4 down links.
	if got, want := topo.NumLinks(), 20*8; got != want {
		t.Fatalf("NumLinks = %d, want %d", got, want)
	}
}

// TestFatTreeOversubscription pins that over-subscription thins the
// up-link pool: k/oversub parallel links instead of k.
func TestFatTreeOversubscription(t *testing.T) {
	full, _ := NewFatTree(64, 4, 1)
	thin, _ := NewFatTree(64, 4, 4)
	if full.NumLinks() <= thin.NumLinks() {
		t.Fatalf("oversub=4 fat-tree has %d links, full-bisection has %d", thin.NumLinks(), full.NumLinks())
	}
	if got, want := thin.NumLinks(), 20*2; got != want {
		t.Fatalf("thin NumLinks = %d, want %d", got, want)
	}
}

// TestTorusRoutes checks dimension-order routing: every route ends at
// the destination's router, takes the shorter wrap, and x moves before
// y.
func TestTorusRoutes(t *testing.T) {
	topo, err := NewTorus(16) // 4x4
	if err != nil {
		t.Fatal(err)
	}
	tr := topo.(*torus)
	if tr.w != 4 || tr.h != 4 {
		t.Fatalf("torus shape %dx%d, want 4x4", tr.w, tr.h)
	}
	for src := NodeID(0); src < 16; src++ {
		for dst := NodeID(0); dst < 16; dst++ {
			r := routeOf(topo, src, dst)
			// Replay the route and confirm it lands on dst's router.
			x, y := int(src)%4, int(src)/4
			for _, li := range r {
				if li < 0 || li >= topo.NumLinks() {
					t.Fatalf("route %d→%d: link %d out of range", src, dst, li)
				}
				pos, dir := li/4, li%4
				if pos != y*4+x {
					t.Fatalf("route %d→%d: link %d departs router %d, cursor at %d", src, dst, li, pos, y*4+x)
				}
				switch dir {
				case torusXPos:
					x = (x + 1) % 4
				case torusXNeg:
					x = (x + 3) % 4
				case torusYPos:
					y = (y + 1) % 4
				case torusYNeg:
					y = (y + 3) % 4
				}
			}
			if x != int(dst)%4 || y != int(dst)/4 {
				t.Fatalf("route %d→%d lands at (%d,%d)", src, dst, x, y)
			}
			// Shorter wrap: on a 4-ring no dimension needs more than 2 steps.
			if len(r) > 4 {
				t.Fatalf("route %d→%d has %d hops, want ≤ 4", src, dst, len(r))
			}
		}
	}
}

// TestCombineTrees pins the switch hierarchies the in-network
// collective plane builds on: crossbar = one switch, fat-tree = its own
// switch tree, torus = a DOR spanning tree rooted at node 0's router.
func TestCombineTrees(t *testing.T) {
	star := CombineTreeOf(nil, 8)
	if len(star.Parent) != 1 || star.Parent[0] != -1 || star.Depth() != 0 {
		t.Fatalf("crossbar combine tree = %+v", star)
	}
	ft, _ := NewFatTree(64, 4, 1)
	ftTree := CombineTreeOf(ft, 64)
	if got := ftTree.Depth(); got != 2 {
		t.Fatalf("fat-tree combine depth = %d, want 2 (leaf→agg→root)", got)
	}
	tor, _ := NewTorus(16)
	tt := CombineTreeOf(tor, 16)
	roots := 0
	for s, p := range tt.Parent {
		if p < 0 {
			roots++
			continue
		}
		// Every chain must terminate at the root without cycles.
		seen := 0
		for q := s; q >= 0; q = tt.Parent[q] {
			if seen++; seen > len(tt.Parent) {
				t.Fatalf("combine-tree cycle through switch %d", s)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("torus combine tree has %d roots", roots)
	}
	if got := tt.Depth(); got != 4 {
		t.Fatalf("4x4 torus combine depth = %d, want 4 (2 x-steps + 2 y-steps)", got)
	}
}

// TestTopologyLatencyAndContention runs real sends through a fat-tree
// fabric: a cross-leaf packet pays more hops than a same-leaf one, and
// two flows forced through one thin up-link queue behind each other.
func TestTopologyLatencyAndContention(t *testing.T) {
	deliverAtTime := func(topoName string, topo Topology, src, dst NodeID) sim.Duration {
		e := sim.NewEngine(1)
		defer e.Close()
		fab, err := New(e, Config{Name: topoName, Nodes: 16, BandwidthMbps: 640, Latency: 5 * sim.Microsecond, Topo: topo})
		if err != nil {
			t.Fatal(err)
		}
		var got sim.Time
		fab.SetDeliveryPort(dst, 0, func(pkt *Packet) { got = e.Now() })
		e.Spawn("tx", func(p *sim.Proc) {
			fab.Send(p, &Packet{Src: src, Dst: dst, Bytes: 256})
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(got)
	}
	ft, _ := NewFatTree(16, 4, 1)
	local := deliverAtTime("ft", ft, 0, 1)   // same leaf: 1 traversal
	remote := deliverAtTime("ft", ft, 0, 15) // leaf→root→leaf: 2 internal links
	flat := deliverAtTime("flat", nil, 0, 15)
	if local != flat {
		t.Fatalf("same-leaf fat-tree delivery %v != crossbar %v", local, flat)
	}
	if want := flat + 2*5*sim.Microsecond; remote != want {
		t.Fatalf("cross-tree delivery %v, want %v (2 extra 5µs traversals)", remote, want)
	}

	// Contention: with one up-link per leaf (oversub=k), two packets
	// from the same leaf to far leaves serialise on that up-link.
	thin, _ := NewFatTree(16, 4, 4)
	e := sim.NewEngine(1)
	defer e.Close()
	fab, err := New(e, Config{Name: "thin", Nodes: 16, BandwidthMbps: 640, Latency: 5 * sim.Microsecond, Topo: thin})
	if err != nil {
		t.Fatal(err)
	}
	var first, second sim.Time
	fab.SetDeliveryPort(14, 0, func(pkt *Packet) { first = e.Now() })
	fab.SetDeliveryPort(15, 0, func(pkt *Packet) { second = e.Now() })
	e.Spawn("tx0", func(p *sim.Proc) { fab.Send(p, &Packet{Src: 0, Dst: 14, Bytes: 4096}) })
	e.Spawn("tx1", func(p *sim.Proc) { fab.Send(p, &Packet{Src: 1, Dst: 15, Bytes: 4096}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ser := fab.SerializationTime(4096)
	if second < first+ser {
		t.Fatalf("thin up-link did not serialise flows: first %v, second %v, ser %v", first, second, ser)
	}
}

// TestTopoByName pins the name → topology mapping the scenario DSL and
// CLIs use.
func TestTopoByName(t *testing.T) {
	for _, name := range []string{"", "crossbar"} {
		topo, err := TopoByName(name, 64)
		if err != nil || topo != nil {
			t.Fatalf("TopoByName(%q) = %v, %v; want nil, nil", name, topo, err)
		}
	}
	for _, name := range []string{"fattree", "torus"} {
		topo, err := TopoByName(name, 64)
		if err != nil || topo == nil {
			t.Fatalf("TopoByName(%q) = %v, %v", name, topo, err)
		}
	}
	if _, err := TopoByName("hypercube", 64); err == nil {
		t.Fatal("unknown topology name must error")
	}
}

// BenchmarkTorusRoute measures the per-packet routing cost on a
// 1,024-node torus — the topology walk every Send pays (bench.sh
// records it in BENCH_sim.json).
func BenchmarkTorusRoute(b *testing.B) {
	topo, err := NewTorus(1024)
	if err != nil {
		b.Fatal(err)
	}
	var buf [64]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := NodeID(i & 1023)
		dst := NodeID((i * 37) & 1023)
		_ = topo.Route(src, dst, buf[:0])
	}
}
