package sink

import (
	"math/bits"
	"slices"

	"pnm/internal/packet"
)

// Order is the paper's relative-order matrix M: it accumulates the "Vi is
// directly upstream of Vj" relations observed across packets, from which
// the sink reconstructs the forwarding path, detects identity-swapping
// loops, and decides when the source is unequivocally identified. It
// keeps only the observed relations. The closure is a pure function of
// them, so every reachability query searches them on demand, and the two
// facts a verdict reads on every call — the minimal nodes and whether a
// loop exists — are derived from them and cached until a new node or
// relation arrives: the incremental-order view of *On Algebraic Traceback
// in Dynamic Networks*.
type Order struct {
	// pos is indexed by NodeID, a sparse set over ids: id is seen iff
	// ids[pos[id]] == id, and pos[id] is then its dense index, so an
	// unseen ID needs no sentinel and an index fits the 16 bits of a
	// NodeID. Chains carry only verified IDs, at most the node count, so
	// the slice stays as long as the largest ID seen, at 2 bytes per ID,
	// and a lookup is one indexed load instead of a map probe.
	pos []uint16
	ids []packet.NodeID
	// dir[i] holds the directly observed relations (consecutive chain
	// pairs) out of node i. The diagonal stays clear.
	dir []bitset

	// minimals (sorted), loop, loops and the first loop's stop are
	// derived from dir by refresh. stale marks them out of date: index
	// and AddChain set it when a node or a relation is new. loops and
	// stop are built only while a loop exists, from one closure.
	minimals []packet.NodeID
	loop     bool
	loops    [][]packet.NodeID
	stop     packet.NodeID
	stopOK   bool
	stale    bool

	// visited, onPath, path and post are search's scratch, reused so a
	// warm recompute allocates nothing.
	visited, onPath bitset
	path            []searchFrame
	post            []int
}

// searchFrame is one node on search's path and the row word its child
// scan resumes at.
type searchFrame struct{ node, word int }

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
// Registration allocates the node's row; a seen id costs one load.
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
	o.dir = append(o.dir, newBitset(len(o.ids))) //pnmlint:allow noalloc one row per newly seen node
	o.stale = true
	return i
}

// AddChain records one packet's accepted marker identities in forwarding
// order (most upstream first). Consecutive pairs become direct relations;
// transitivity recovers the rest, exactly as in the paper. Each ID is
// resolved once, in chain order: IDs register in first-sight order, the
// order Checkpoint writes them in.
// pnmlint:noalloc
func (o *Order) AddChain(chain []packet.NodeID) {
	if len(chain) == 0 {
		return
	}
	u := o.index(chain[0])
	for _, id := range chain[1:] {
		v := o.index(id)
		if u != v && !o.dir[u].has(v) {
			o.dir[u].set(v)
			o.stale = true
		}
		u = v
	}
}

// refresh recomputes the minimals and the loop flag from dir when a node
// or relation arrived since the last read. A minimal is a node with no
// direct in-relation, which is exactly a node with no ancestor: one OR of
// every row. While a loop exists it also builds the closure once and
// derives the loops and the first loop's stop from it, so a verdict read
// with nothing new does no closure work.
func (o *Order) refresh() {
	if !o.stale {
		return
	}
	o.stale = false
	hasIn := o.visited.reset(len(o.ids)) // search reuses these words
	for _, row := range o.dir {
		hasIn.or(row)
	}
	o.minimals = o.minimals[:0]
	for i, id := range o.ids {
		if !hasIn.has(i) {
			o.minimals = append(o.minimals, id)
		}
	}
	slices.Sort(o.minimals)
	o.loop = o.search(0, len(o.ids))
	o.loops, o.stop, o.stopOK = nil, 0, false
	if o.loop {
		reach := o.closure()
		o.loops = o.loopsOf(reach)
		o.stop, o.stopOK = o.afterLoop(reach, o.loops[0])
	}
}

// search runs a depth-first search over dir from each unvisited node of
// [lo, hi) in turn, and reports whether it met a loop; o.visited holds
// every node it reached. Every step is word-parallel over a row: entering
// node i, dir[i] & onPath is a back relation, and only unvisited children
// are pushed, so it costs seen × words however many relations there are.
// It leaves the nodes in o.post in postorder, where a node comes after
// every node it reaches outside its own loop.
func (o *Order) search(lo, hi int) bool {
	n := len(o.ids)
	visited, onPath := o.visited.reset(n), o.onPath.reset(n)
	path, post := o.path[:0], o.post[:0]
	loop := false
	for root := lo; root < hi; root++ {
		if visited.has(root) {
			continue
		}
		visited.set(root)
		onPath.set(root)
		path = append(path, searchFrame{node: root})
		for len(path) > 0 {
			f := &path[len(path)-1]
			row, child := o.dir[f.node], -1
			for ; f.word < len(row); f.word++ {
				if m := row[f.word] &^ visited[f.word]; m != 0 {
					child = f.word*64 + bits.TrailingZeros64(m)
					break
				}
			}
			if child < 0 {
				onPath.clear(f.node)
				post = append(post, f.node)
				path = path[:len(path)-1]
				continue
			}
			visited.set(child)
			onPath.set(child)
			for w, x := range o.dir[child] {
				loop = loop || x&onPath[w] != 0
			}
			path = append(path, searchFrame{node: child})
		}
	}
	o.visited, o.onPath, o.path, o.post = visited, onPath, path, post
	return loop
}

// closure returns, for every node, the nodes it reaches over one or more
// relations, itself only when it is on a loop. Each row starts as dir's and
// absorbs its children's rows in search's postorder, so a loop-free order
// is complete after one pass over the relations; around a loop the passes
// repeat until no row grows.
func (o *Order) closure() []bitset {
	o.search(0, len(o.ids))
	rows := make([]bitset, len(o.ids))
	for i, row := range o.dir {
		rows[i] = newBitset(len(o.ids))
		copy(rows[i], row)
	}
	for grew := true; grew; {
		grew = false
		for _, i := range o.post {
			o.dir[i].forEach(func(c int) {
				grew = rows[i].or(rows[c]) || grew
			})
		}
	}
	return rows
}

// SeenCount returns how many distinct marker identities were collected —
// the quantity Figure 5 tracks.
func (o *Order) SeenCount() int { return len(o.ids) }

// Seen returns the collected identities, sorted.
func (o *Order) Seen() []packet.NodeID {
	out := slices.Clone(o.ids)
	slices.Sort(out)
	return out
}

// Upstream reports whether a is known (transitively) upstream of b.
func (o *Order) Upstream(a, b packet.NodeID) bool {
	i, iok := o.lookup(a)
	j, jok := o.lookup(b)
	if !iok || !jok || i == j {
		return false
	}
	o.search(i, i+1)
	return o.visited.has(j)
}

// Minimals returns the nodes with no known upstream — the candidate source
// set. Loop members reach each other, so a loop never contributes minimals.
func (o *Order) Minimals() []packet.NodeID {
	o.refresh()
	return append([]packet.NodeID(nil), o.minimals...)
}

// TotallyOrdered reports whether every pair of collected nodes is
// comparable, i.e. the reconstructed route is a single chain with no
// ambiguity left.
func (o *Order) TotallyOrdered() bool {
	reach := o.closure()
	for i := range reach {
		for j := i + 1; j < len(reach); j++ {
			if !reach[i].has(j) && !reach[j].has(i) {
				return false
			}
		}
	}
	return true
}

// HasCycle reports whether any mutual reachability exists — the signature
// of the identity-swapping attack.
func (o *Order) HasCycle() bool {
	o.refresh()
	return o.loop
}

// Loops returns the sets of mutually-reachable nodes (each a loop created
// by identity swapping), sorted by their smallest member. The loop-free
// common case returns nil off the cached loop flag, without a search.
func (o *Order) Loops() [][]packet.NodeID {
	o.refresh()
	if len(o.loops) == 0 {
		return nil
	}
	loops := make([][]packet.NodeID, len(o.loops))
	for i, l := range o.loops {
		loops[i] = slices.Clone(l)
	}
	return loops
}

// firstLoop returns the loop Loops lists first and its stop, as
// MostUpstreamAfterLoop gives it, off the cached derivation; loop is nil
// when the order has none. The caller must not modify loop.
func (o *Order) firstLoop() (loop []packet.NodeID, stop packet.NodeID, ok bool) {
	o.refresh()
	if len(o.loops) == 0 {
		return nil, 0, false
	}
	return o.loops[0], o.stop, o.stopOK
}

// loopsOf groups the nodes on a loop in reach, a closure, into their
// mutually reachable sets, each sorted, sorted by smallest member.
func (o *Order) loopsOf(reach []bitset) [][]packet.NodeID {
	grouped := newBitset(len(o.ids))
	var loops [][]packet.NodeID
	for i := range o.ids {
		if grouped.has(i) || !reach[i].has(i) {
			continue
		}
		var members []packet.NodeID
		reach[i].forEach(func(j int) {
			if reach[j].has(i) {
				grouped.set(j)
				members = append(members, o.ids[j])
			}
		})
		slices.Sort(members)
		loops = append(loops, members)
	}
	slices.SortFunc(loops, func(a, b []packet.NodeID) int { return int(a[0]) - int(b[0]) })
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
	// Loop-free and total, the nodes reach n-1, n-2, …, 0 others: a
	// node's count is its place from the route's end.
	route := make([]packet.NodeID, len(o.ids))
	for i, row := range o.closure() {
		route[len(route)-1-row.count()] = o.ids[i]
	}
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
	return o.afterLoop(o.closure(), loop)
}

// afterLoop is MostUpstreamAfterLoop over reach, the order's closure.
func (o *Order) afterLoop(reach []bitset, loop []packet.NodeID) (packet.NodeID, bool) {
	inLoop, below := newBitset(len(o.ids)), newBitset(len(o.ids))
	for _, id := range loop {
		if i, ok := o.lookup(id); ok {
			inLoop.set(i)
			below.or(reach[i])
		}
	}
	best, bestOutside := -1, 0
	below.forEach(func(b int) {
		if inLoop.has(b) {
			return
		}
		outside := 0
		for a, row := range reach {
			if a != b && !inLoop.has(a) && row.has(b) {
				outside++
			}
		}
		if best == -1 || outside < bestOutside || outside == bestOutside && o.ids[b] < o.ids[best] {
			best, bestOutside = b, outside
		}
	})
	if best == -1 {
		return 0, false
	}
	return o.ids[best], true
}
