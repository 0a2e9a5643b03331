package sink

import (
	"fmt"
	"strings"
	"testing"

	"pnm/internal/packet"
)

// orderDigest canonicalizes everything a verdict can read off an Order —
// the id set, every pair Upstream reports, the loops with the stop each
// one's line gives, the minimals and the reconstructed route —
// independent of insertion order. Two orders with equal digests are
// indistinguishable to the tracker.
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
	for _, loop := range o.Loops() {
		stop, ok := o.MostUpstreamAfterLoop(loop)
		fmt.Fprintf(&sb, "loop %v stop=%v,%v\n", loop, stop, ok)
	}
	if route, ok := o.Route(); ok {
		fmt.Fprintf(&sb, "route=%v\n", route)
	}
	return sb.String()
}

// TestOrderAddChainSteadyStateZeroAlloc pins folding's allocation
// behavior: once an order has seen a chain's nodes, folding the chain's
// new relations — and a loop-closing back relation — allocates nothing.
// Each run needs a fresh order (a relation is new only once), so the
// orders are built up front and consumed one per invocation.
func TestOrderAddChainSteadyStateZeroAlloc(t *testing.T) {
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
		t.Fatal("back relation should have closed a loop")
	}
}

// TestOrderRefreshWarmZeroAlloc pins the cached verdict facts: once an
// order has been read, recomputing its minimals and loop flag after a
// new relation reuses the order's own scratch and allocates nothing.
func TestOrderRefreshWarmZeroAlloc(t *testing.T) {
	o := NewOrder()
	o.AddChain([]packet.NodeID{1, 2, 3, 4, 5})
	o.AddChain([]packet.NodeID{9, 3, 7})
	o.Minimals()
	allocs := testing.AllocsPerRun(20, func() {
		o.stale = true
		o.refresh()
	})
	if allocs != 0 {
		t.Fatalf("warm refresh allocated %.1f times per run, want 0", allocs)
	}
	if got := o.Minimals(); len(got) != 2 || got[0] != 1 || got[1] != 9 || o.HasCycle() {
		t.Fatalf("Minimals = %v, HasCycle = %v; want [V1 V9], false", got, o.HasCycle())
	}
}
