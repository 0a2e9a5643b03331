package sink

import (
	"sort"

	"pnm/internal/packet"
)

// Order is the paper's relative-order matrix M: it accumulates "Vi is
// upstream of Vj" relations observed across packets and maintains their
// transitive closure incrementally, so the sink can reconstruct the
// forwarding path, detect identity-swapping loops, and decide when the
// source is unequivocally identified.
type Order struct {
	// pos is indexed by NodeID, a sparse set over ids: id is seen iff
	// ids[pos[id]] == id, and pos[id] is then its dense index, so an
	// unseen ID needs no sentinel and an index fits the 16 bits of a
	// NodeID. Chains carry only verified IDs, at most the node count, so
	// the slice stays as long as the largest ID seen, at 2 bytes per ID,
	// and a lookup is one indexed load instead of a map probe.
	pos  []uint16
	ids  []packet.NodeID
	desc []bitset // desc[i]: nodes strictly downstream of i (closure)
	anc  []bitset // anc[i]: nodes strictly upstream of i (closure)
	// dir[i] holds the directly observed relations (consecutive chain
	// pairs), a subset of desc[i]. The closure is a pure function of the
	// direct relation set, so Checkpoint replays dir instead of
	// the O(n²) closure — the incremental-order lever from *On Algebraic
	// Traceback in Dynamic Networks*.
	dir []bitset
	// cyc marks the nodes currently on some mutual-reachability loop.
	// It is maintained at edge insertion, so HasCycle/Loops no longer
	// rescan all n² reachability pairs per verdict read.
	cyc bitset
	// ups/downs are addEdge's scratch lists, reused across calls so a
	// steady-state insertion allocates nothing.
	ups, downs []int
}

// NewOrder returns an empty order matrix.
func NewOrder() *Order {
	return &Order{}
}

// lookup returns id's dense index, and false when id is unseen.
func (o *Order) lookup(id packet.NodeID) (int, bool) {
	if int(id) < len(o.pos) {
		if i := int(o.pos[id]); i < len(o.ids) && o.ids[i] == id {
			return i, true
		}
	}
	return 0, false
}

// index returns the dense index for id, registering it on first sight.
// Registration allocates the node's rows; a seen id costs one load.
// pnmlint:noalloc
func (o *Order) index(id packet.NodeID) int {
	if i, ok := o.lookup(id); ok {
		return i
	}
	if int(id) >= len(o.pos) {
		grown := make([]uint16, (int(id)|63)+1) //pnmlint:allow noalloc grows only until it covers the largest ID seen
		copy(grown, o.pos)
		o.pos = grown
	}
	i := len(o.ids)
	o.pos[id] = uint16(i)
	o.ids = append(o.ids, id)
	o.desc = append(o.desc, newBitset(len(o.ids))) //pnmlint:allow noalloc one row per newly seen node
	o.anc = append(o.anc, newBitset(len(o.ids)))   //pnmlint:allow noalloc one row per newly seen node
	o.dir = append(o.dir, newBitset(len(o.ids)))   //pnmlint:allow noalloc one row per newly seen node
	return i
}

// AddChain records one packet's accepted marker identities in forwarding
// order (most upstream first). Consecutive pairs become direct relations;
// the closure recovers the rest, exactly as transitivity does in the paper.
// Each ID is resolved once, in chain order: IDs register in first-sight
// order, the order Checkpoint writes them in.
// pnmlint:noalloc
func (o *Order) AddChain(chain []packet.NodeID) {
	if len(chain) == 0 {
		return
	}
	u := o.index(chain[0])
	for _, id := range chain[1:] {
		v := o.index(id)
		o.addEdge(u, v)
		u = v
	}
}

// addEdge inserts u -> v and updates the closure: every ancestor of u
// (plus u) now reaches every descendant of v (plus v). The expansion is
// one bitset OR per affected row instead of the old ancestor×descendant
// bit-by-bit double loop: rows that already reach v are complete by the
// closure invariant and are skipped, the rest absorb desc[v] wholesale.
// The diagonal stays clear (self-loops are implicit; cycles show as
// mutual reachability), and the scratch lists are reused across calls.
//
// pnmlint:noalloc
func (o *Order) addEdge(u, v int) {
	if u == v {
		return
	}
	// Record the direct relation before the redundancy check: dir must
	// generate the closure even when u -> v arrives after being implied
	// transitively, or a Checkpoint replay would lose it.
	o.dir[u].set(v)
	if o.desc[u].has(v) {
		return
	}
	ups := o.anc[u].appendBits(o.ups[:0])
	ups = append(ups, u)
	downs := o.desc[v].appendBits(o.downs[:0])
	downs = append(downs, v)

	// The edge closes a loop iff v already reached u. The nodes that
	// become mutually reachable are exactly those on a path through the
	// new edge: (anc*(u) ∪ {u}) ∩ (desc*(v) ∪ {v}), evaluated before the
	// closure is mutated.
	if o.desc[v].has(u) {
		for _, a := range ups {
			if a == v || o.desc[v].has(a) {
				o.cyc.set(a)
			}
		}
	}
	for _, a := range ups {
		if o.desc[a].has(v) {
			continue
		}
		o.desc[a].or(o.desc[v])
		o.desc[a].set(v)
		o.desc[a].clear(a)
	}
	for _, b := range downs {
		if o.anc[b].has(u) {
			continue
		}
		o.anc[b].or(o.anc[u])
		o.anc[b].set(u)
		o.anc[b].clear(b)
	}
	o.ups, o.downs = ups, downs
}

// SeenCount returns how many distinct marker identities were collected —
// the quantity Figure 5 tracks.
func (o *Order) SeenCount() int { return len(o.ids) }

// Seen returns the collected identities, sorted.
func (o *Order) Seen() []packet.NodeID {
	out := make([]packet.NodeID, len(o.ids))
	copy(out, o.ids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasSeen reports whether id's mark has been collected.
func (o *Order) HasSeen(id packet.NodeID) bool {
	_, ok := o.lookup(id)
	return ok
}

// Upstream reports whether a is known (transitively) upstream of b.
func (o *Order) Upstream(a, b packet.NodeID) bool {
	i, ok := o.lookup(a)
	if !ok {
		return false
	}
	j, ok := o.lookup(b)
	if !ok {
		return false
	}
	return o.desc[i].has(j)
}

// Minimals returns the nodes with no known upstream — the candidate source
// set. Loop members reach each other, so a loop never contributes minimals.
func (o *Order) Minimals() []packet.NodeID {
	var out []packet.NodeID
	for i, id := range o.ids {
		if o.anc[i].count() == 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotallyOrdered reports whether every pair of collected nodes is
// comparable, i.e. the reconstructed route is a single chain with no
// ambiguity left.
func (o *Order) TotallyOrdered() bool {
	n := len(o.ids)
	// In a strict total order the comparability count sums to n(n-1)/2
	// distinct ordered pairs. Cycles double-count pairs, so check pairwise.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !o.desc[i].has(j) && !o.desc[j].has(i) {
				return false
			}
		}
	}
	return true
}

// HasCycle reports whether any mutual reachability exists — the signature
// of the identity-swapping attack. The loop membership set is maintained
// at edge insertion, so this is an O(n/64) word scan instead of a rescan
// of all n² reachability pairs.
func (o *Order) HasCycle() bool {
	return o.cyc.any()
}

// Loops returns the sets of mutually-reachable nodes (each a loop created
// by identity swapping), sorted by their smallest member. Only the
// incrementally maintained loop members are grouped; the loop-free common
// case returns nil without touching the closure at all.
func (o *Order) Loops() [][]packet.NodeID {
	if !o.cyc.any() {
		return nil
	}
	visited := make([]bool, len(o.ids))
	var loops [][]packet.NodeID
	for i := 0; i < len(o.ids); i++ {
		if !o.cyc.has(i) || visited[i] {
			continue
		}
		var members []packet.NodeID
		o.desc[i].forEach(func(j int) {
			if o.desc[j].has(i) && !visited[j] {
				visited[j] = true
				members = append(members, o.ids[j])
			}
		})
		if len(members) > 0 {
			if !visited[i] {
				visited[i] = true
				members = append(members, o.ids[i])
			}
			sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
			loops = append(loops, members)
		}
	}
	sort.Slice(loops, func(a, b int) bool { return loops[a][0] < loops[b][0] })
	return loops
}

// Route returns the reconstructed forwarding path, most upstream first,
// when the collected nodes are totally ordered and loop-free; ok is false
// while the order is still ambiguous. This is the "complete route" §4.2's
// algorithm converges to.
func (o *Order) Route() ([]packet.NodeID, bool) {
	if o.HasCycle() || !o.TotallyOrdered() {
		return nil, false
	}
	route := make([]packet.NodeID, len(o.ids))
	copy(route, o.ids)
	sort.Slice(route, func(a, b int) bool {
		i, _ := o.lookup(route[a])
		j, _ := o.lookup(route[b])
		return o.desc[i].has(j)
	})
	return route, true
}

// MostUpstreamAfterLoop returns the most upstream node on the line from a
// loop to the sink: among non-loop nodes downstream of loop members, the
// one with no non-loop upstream outside the loop. This is where the loop
// intersects the line (Figure 2) and where a mole must sit within one hop.
//
// Ties (several candidates with equally few outside ancestors) break by
// smallest node ID, never by insertion order, so the result — like every
// other verdict input — is a pure function of the accumulated reachability
// relation.
func (o *Order) MostUpstreamAfterLoop(loop []packet.NodeID) (packet.NodeID, bool) {
	inLoop := make(map[packet.NodeID]bool, len(loop))
	for _, id := range loop {
		inLoop[id] = true
	}
	best := packet.NodeID(0)
	bestOutside := -1
	for i, id := range o.ids {
		if inLoop[id] {
			continue
		}
		touchesLoop := false
		outside := 0
		o.anc[i].forEach(func(j int) {
			if inLoop[o.ids[j]] {
				touchesLoop = true
			} else {
				outside++
			}
		})
		if !touchesLoop {
			continue
		}
		if bestOutside == -1 || outside < bestOutside ||
			(outside == bestOutside && id < best) {
			best, bestOutside = id, outside
		}
	}
	return best, bestOutside != -1
}
