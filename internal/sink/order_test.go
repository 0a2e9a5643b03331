package sink

import (
	"math/rand"
	"slices"
	"testing"

	"pnm/internal/packet"
)

func TestBitsetBasics(t *testing.T) {
	var b bitset
	b.set(3)
	b.set(64)
	b.set(200)
	if !b.has(3) || !b.has(64) || !b.has(200) {
		t.Fatal("set bits not readable")
	}
	if b.has(4) || b.has(1000) {
		t.Fatal("unset bits read as set")
	}
	if got := b.count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	var got []int
	b.forEach(func(i int) { got = append(got, i) })
	if len(got) != 3 || got[0] != 3 || got[1] != 64 || got[2] != 200 {
		t.Fatalf("forEach = %v", got)
	}
}

func TestBitsetOr(t *testing.T) {
	var a, b bitset
	a.set(1)
	b.set(100)
	a.or(b)
	if !a.has(1) || !a.has(100) {
		t.Fatal("or lost bits")
	}
}

func TestOrderSingleChain(t *testing.T) {
	o := NewOrder()
	o.AddChain([]packet.NodeID{1, 2, 3})
	if !o.Upstream(1, 3) {
		t.Fatal("closure missed 1 -> 3")
	}
	if o.Upstream(3, 1) {
		t.Fatal("spurious 3 -> 1")
	}
	if got := o.Minimals(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Minimals = %v, want [V1]", got)
	}
	if !o.TotallyOrdered() {
		t.Fatal("single chain not totally ordered")
	}
	if o.HasCycle() {
		t.Fatal("single chain reported a cycle")
	}
}

func TestOrderMergesPartialChains(t *testing.T) {
	// Probabilistic marking: different packets sample different nodes.
	o := NewOrder()
	o.AddChain([]packet.NodeID{1, 3})
	o.AddChain([]packet.NodeID{2, 3})
	if o.TotallyOrdered() {
		t.Fatal("1 and 2 are not yet comparable")
	}
	if got := o.Minimals(); len(got) != 2 {
		t.Fatalf("Minimals = %v, want two candidates", got)
	}
	o.AddChain([]packet.NodeID{1, 2})
	if !o.TotallyOrdered() {
		t.Fatal("route should now be totally ordered")
	}
	if got := o.Minimals(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Minimals = %v, want [V1]", got)
	}
	if !o.Upstream(1, 3) {
		t.Fatal("transitivity missed 1 -> 3")
	}
}

func TestOrderCycleDetection(t *testing.T) {
	o := NewOrder()
	// Identity swapping: V5 appears both before and after V7.
	o.AddChain([]packet.NodeID{5, 6, 7})
	o.AddChain([]packet.NodeID{7, 5})
	if !o.HasCycle() {
		t.Fatal("cycle not detected")
	}
	loops := o.Loops()
	if len(loops) != 1 {
		t.Fatalf("Loops = %v, want one loop", loops)
	}
	if got := loops[0]; len(got) != 3 || got[0] != 5 || got[1] != 6 || got[2] != 7 {
		t.Fatalf("loop members = %v, want [V5 V6 V7]", got)
	}
	if got := o.Minimals(); len(got) != 0 {
		t.Fatalf("Minimals = %v, want none inside a loop", got)
	}
}

func TestOrderMostUpstreamAfterLoop(t *testing.T) {
	o := NewOrder()
	// Loop {5,6,7}; line 8 -> 9 toward the sink (Figure 2's shape).
	o.AddChain([]packet.NodeID{5, 6, 7, 8, 9})
	o.AddChain([]packet.NodeID{7, 5})
	loops := o.Loops()
	if len(loops) != 1 {
		t.Fatalf("Loops = %v", loops)
	}
	stop, ok := o.MostUpstreamAfterLoop(loops[0])
	if !ok || stop != 8 {
		t.Fatalf("MostUpstreamAfterLoop = %v, %v; want V8", stop, ok)
	}
}

func TestOrderMostUpstreamAfterLoopAllInLoop(t *testing.T) {
	o := NewOrder()
	o.AddChain([]packet.NodeID{1, 2})
	o.AddChain([]packet.NodeID{2, 1})
	loops := o.Loops()
	if _, ok := o.MostUpstreamAfterLoop(loops[0]); ok {
		t.Fatal("want no line node when everything is in the loop")
	}
}

func TestOrderSeen(t *testing.T) {
	o := NewOrder()
	o.AddChain([]packet.NodeID{4})
	o.AddChain([]packet.NodeID{2, 4})
	if got := o.SeenCount(); got != 2 {
		t.Fatalf("SeenCount = %d, want 2", got)
	}
	o.AddChain([]packet.NodeID{1000})
	seen := o.Seen()
	if len(seen) != 3 || seen[0] != 2 || seen[1] != 4 || seen[2] != 1000 {
		t.Fatalf("Seen = %v, want [V2 V4 V1000]", seen)
	}
}

func TestOrderSingletonChainAddsNodeWithoutRelations(t *testing.T) {
	o := NewOrder()
	o.AddChain([]packet.NodeID{3})
	if got := o.SeenCount(); got != 1 {
		t.Fatalf("SeenCount = %d, want 1", got)
	}
	if got := o.Minimals(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Minimals = %v", got)
	}
	if !o.TotallyOrdered() {
		t.Fatal("one node is trivially totally ordered")
	}
}

func TestOrderRoute(t *testing.T) {
	o := NewOrder()
	o.AddChain([]packet.NodeID{5, 3})
	o.AddChain([]packet.NodeID{2, 1})
	if _, ok := o.Route(); ok {
		t.Fatal("partial order should not yield a route yet")
	}
	o.AddChain([]packet.NodeID{3, 2})
	route, ok := o.Route()
	if !ok || len(route) != 4 || route[0] != 5 || route[1] != 3 || route[2] != 2 || route[3] != 1 {
		t.Fatalf("route = %v, ok = %v", route, ok)
	}
	// A loop kills the route.
	o.AddChain([]packet.NodeID{1, 5})
	if _, ok := o.Route(); ok {
		t.Fatal("looped order should not yield a route")
	}
}

// loopOrderTracker builds the order shape of a long identity-swap
// attack: 513 nodes, 10,901 distinct relations drawn at random along one
// hidden total order, plus a 47-node loop through nodes spread over it.
func loopOrderTracker(tb testing.TB) *Tracker {
	tb.Helper()
	const nodes, relations, loopLen = 513, 10901, 47
	rng := rand.New(rand.NewSource(41))
	rank := rng.Perm(nodes) // node i+1 sits at rank[i] on the hidden line
	tr := NewTracker(nil, nil)
	type rel struct{ a, b int }
	seen := make(map[rel]bool)
	add := func(a, b int) {
		if a != b && !seen[rel{a, b}] {
			seen[rel{a, b}] = true
			tr.Fold(Result{Chain: []packet.NodeID{packet.NodeID(a + 1), packet.NodeID(b + 1)}})
		}
	}
	loop := rng.Perm(nodes)[:loopLen]
	for i, a := range loop {
		add(a, loop[(i+1)%loopLen])
	}
	for len(seen) < relations {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		if rank[a] < rank[b] {
			add(a, b)
		}
	}
	if n := tr.Order().SeenCount(); n != nodes {
		tb.Fatalf("order saw %d nodes, want %d", n, nodes)
	}
	if loops := tr.Order().Loops(); len(loops) == 0 || len(loops[0]) < loopLen {
		tb.Fatalf("order's loops %v lack the %d-node loop", loops, loopLen)
	}
	return tr
}

// BenchmarkVerdictLoop measures a verdict read on loopOrderTracker's
// order: warm, with nothing new since the last read (a poller's steady
// state), and after new evidence marks the derived facts stale.
func BenchmarkVerdictLoop(b *testing.B) {
	tr := loopOrderTracker(b)
	b.Run("warm", func(b *testing.B) {
		tr.Verdict()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Verdict()
		}
	})
	b.Run("stale", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.order.stale = true
			tr.Verdict()
		}
	})
}

// TestVerdictLoopReadsCached checks that Verdict's loop branch reads the
// loop and its stop as Loops and MostUpstreamAfterLoop compute them, and
// that a caller changing the returned loop cannot change the next read.
func TestVerdictLoopReadsCached(t *testing.T) {
	tr := loopOrderTracker(t)
	loops := tr.Order().Loops()
	stop, ok := tr.Order().MostUpstreamAfterLoop(loops[0])
	if !ok {
		stop = loops[0][0]
	}
	v := tr.Verdict()
	if !slices.Equal(v.Loop, loops[0]) || !v.HasStop || v.Stop != stop {
		t.Fatalf("verdict loop %v stop %v, want loop %v stop %v", v.Loop, v.Stop, loops[0], stop)
	}
	v.Loop[0]++
	loops[0][0]++
	if again := tr.Verdict(); !slices.Equal(again.Loop, tr.Order().Loops()[0]) || again.Loop[0] == v.Loop[0] {
		t.Fatalf("a caller's change to a returned loop reached the cache: %v", again.Loop)
	}
}
