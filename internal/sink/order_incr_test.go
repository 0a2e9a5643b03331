package sink

import (
	"fmt"
	"strings"
	"testing"

	"pnm/internal/packet"
)

// orderDigest canonicalizes everything a verdict can read off an Order —
// the id set, the full transitive closure, loop structure and the
// reconstructed route — independent of insertion order. Two
// orders with equal digests are indistinguishable to the tracker.
func orderDigest(o *Order) string {
	var sb strings.Builder
	ids := o.Seen()
	fmt.Fprintf(&sb, "ids=%v\n", ids)
	for _, a := range ids {
		for _, b := range ids {
			if o.Upstream(a, b) {
				fmt.Fprintf(&sb, "%d<%d\n", a, b)
			}
		}
	}
	fmt.Fprintf(&sb, "cycle=%v loops=%v minimals=%v total=%v\n",
		o.HasCycle(), o.Loops(), o.Minimals(), o.TotallyOrdered())
	if route, ok := o.Route(); ok {
		fmt.Fprintf(&sb, "route=%v\n", route)
	}
	return sb.String()
}

// TestOrderAddEdgeSteadyStateZeroAlloc pins the incremental closure
// update's allocation behavior: once an order's rows and scratch lists
// have reached their working size, inserting a closure-expanding chain —
// and even a cycle-closing back edge — allocates nothing. Each run needs
// a fresh pre-warmed Order (an edge can only be newly inserted once), so
// the orders are built up front and consumed one per invocation.
func TestOrderAddEdgeSteadyStateZeroAlloc(t *testing.T) {
	const runs = 20
	const n = 32
	chain := make([]packet.NodeID, n)
	for i := range chain {
		chain[i] = packet.NodeID(i + 1)
	}
	back := []packet.NodeID{chain[n-1], chain[0]}
	orders := make([]*Order, runs+1) // AllocsPerRun calls f runs+1 times
	for i := range orders {
		o := NewOrder()
		for _, id := range chain {
			o.index(id)
		}
		o.cyc.grow(n)
		o.ups = make([]int, 0, n)
		o.downs = make([]int, 0, n)
		orders[i] = o
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		o := orders[k]
		k++
		o.AddChain(chain)
		o.AddChain(back)
	})
	if allocs != 0 {
		t.Fatalf("steady-state AddChain allocated %.1f times per run, want 0", allocs)
	}
	if !orders[0].HasCycle() {
		t.Fatal("back edge should have closed a loop")
	}
}
