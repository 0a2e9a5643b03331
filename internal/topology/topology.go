// Package topology models the static sensor field the paper assumes: nodes
// placed in a plane, radio-range neighbor relations, and a stable routing
// tree in which every node has exactly one next hop toward the sink (as in
// tree-based routing such as TinyDB or geographic forwarding such as GPSR).
//
// The routing tree gives the forwarding chain S -> V1 -> ... -> Vn -> sink
// that every experiment drives packets along, and the neighbor relation
// defines the "one-hop neighborhood" in which traceback verdicts must
// contain a mole.
package topology

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"pnm/internal/packet"
)

// Point is a node position in the plane.
type Point struct {
	X, Y float64
}

// dist returns the Euclidean distance between two points.
func dist(a, b Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// Network is an immutable sensor field with a routing tree rooted at the
// sink (node 0). Node IDs run 1..NumNodes().
//
// The radio graph is stored in compressed-sparse-row form: node i's
// ascending neighbor list is nbrs[nbrOff[i]:nbrOff[i+1]], every list back
// to back in one array. Networks derived by Rewire and Reroute share the
// receiver's positions and radio graph and own only their routing tree.
type Network struct {
	pos    []Point // indexed by NodeID; pos[0] is the sink
	nbrOff []int32 // NumNodes()+2 offsets into nbrs
	nbrs   []packet.NodeID
	parent []packet.NodeID
	depth  []int32 // hop distance to the sink; -1 means no route
}

// NewChain builds a linear network of n forwarding nodes plus the sink:
// node 1 is adjacent to the sink and node n is the deepest. A source placed
// at node n forwards over the n-1 nodes below it; use NewChain(n+1) and
// source n+1 for a "path of n forwarding nodes" in the paper's sense. The
// nodes sit one unit apart on a line with radio range 1, so each hears
// only the nodes next to it.
func NewChain(n int) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: chain needs at least 1 node, got %d", n)
	}
	pos := make([]Point, n+1)
	for i := range pos {
		pos[i] = Point{X: float64(i)}
	}
	return fromPositions(pos, 1)
}

// GridConfig parameterizes NewGrid.
type GridConfig struct {
	// Width and Height are the grid dimensions in nodes.
	Width, Height int
	// Spacing is the distance between grid neighbors.
	Spacing float64
	// RadioRange is the communication radius. It must be at least Spacing
	// for the grid to be connected.
	RadioRange float64
}

// NewGrid builds a Width x Height grid with the sink at the corner (0,0).
func NewGrid(cfg GridConfig) (*Network, error) {
	if cfg.Width < 1 || cfg.Height < 1 {
		return nil, fmt.Errorf("topology: grid dimensions %dx%d invalid", cfg.Width, cfg.Height)
	}
	if cfg.Spacing <= 0 {
		cfg.Spacing = 1
	}
	if cfg.RadioRange <= 0 {
		cfg.RadioRange = cfg.Spacing
	}
	if cfg.RadioRange < cfg.Spacing {
		return nil, fmt.Errorf("topology: radio range %g below spacing %g disconnects the grid",
			cfg.RadioRange, cfg.Spacing)
	}
	n := cfg.Width * cfg.Height
	pos := make([]Point, 0, n)
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			pos = append(pos, Point{X: float64(x) * cfg.Spacing, Y: float64(y) * cfg.Spacing})
		}
	}
	// Node 0 at the corner is the sink; the rest keep their grid positions.
	return fromPositions(pos, cfg.RadioRange)
}

// GeometricConfig parameterizes NewRandomGeometric.
type GeometricConfig struct {
	// Nodes is the number of sensor nodes (the sink is additional).
	Nodes int
	// Side is the edge length of the square deployment area.
	Side float64
	// RadioRange is the communication radius.
	RadioRange float64
	// SinkAtCorner places the sink at (0,0) instead of the area center,
	// yielding deeper routing trees.
	SinkAtCorner bool
	// Seed drives the deterministic placement.
	Seed int64
	// MaxAttempts bounds the rejection-sampling retries used to obtain a
	// fully connected placement. Zero means a sensible default.
	MaxAttempts int
}

// NewRandomGeometric places nodes uniformly at random in a square and
// retries until every node has a route to the sink.
func NewRandomGeometric(cfg GeometricConfig) (*Network, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("topology: need at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.Side <= 0 || cfg.RadioRange <= 0 {
		return nil, fmt.Errorf("topology: side %g and radio range %g must be positive", cfg.Side, cfg.RadioRange)
	}
	attempts := cfg.MaxAttempts
	if attempts == 0 {
		attempts = 50
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for a := 0; a < attempts; a++ {
		pos := make([]Point, cfg.Nodes+1)
		if cfg.SinkAtCorner {
			pos[0] = Point{}
		} else {
			pos[0] = Point{X: cfg.Side / 2, Y: cfg.Side / 2}
		}
		for i := 1; i <= cfg.Nodes; i++ {
			pos[i] = Point{X: rng.Float64() * cfg.Side, Y: rng.Float64() * cfg.Side}
		}
		nw, err := fromPositions(pos, cfg.RadioRange)
		if !errors.Is(err, errUnreachable) {
			return nw, err // connected, or a limit no redraw can lift
		}
	}
	return nil, fmt.Errorf("topology: no connected placement for %d nodes, side %g, range %g after %d attempts",
		cfg.Nodes, cfg.Side, cfg.RadioRange, attempts)
}

// errUnreachable marks the one fromPositions failure a fresh placement
// can cure: a node with no route to the sink. The retry loops redraw on
// it and on nothing else.
var errUnreachable = errors.New("unreachable from sink")

// fromPositions builds the radio graph and the BFS routing tree. It fails
// if any node is unreachable from the sink (wrapping errUnreachable), if
// the field has more nodes than NodeIDs, or if its links overflow the
// CSR offsets.
func fromPositions(pos []Point, radioRange float64) (*Network, error) {
	if len(pos)-1 > math.MaxUint16 {
		return nil, fmt.Errorf("topology: %d nodes exceed the %d node IDs", len(pos)-1, math.MaxUint16)
	}
	off, nbrs, err := radioNeighbors(pos, radioRange)
	if err != nil {
		return nil, err
	}
	nw := &Network{pos: pos, nbrOff: off, nbrs: nbrs}
	nw.parent, nw.depth = nw.route(nil, nil)
	for i := 1; i < len(pos); i++ {
		if nw.depth[i] == -1 {
			return nil, fmt.Errorf("topology: node %d %w", i, errUnreachable)
		}
	}
	return nw, nil
}

// maxLinks bounds a field's radio links so that every CSR offset, twice
// the link count at most, fits in an int32.
const maxLinks = math.MaxInt32 / 2

// linkBounds lets the squared distance decide dist(p, q) <= r, the test
// every radio link is defined by, away from the boundary: a pair with
// d² < lo is surely in range and one with d² > hi surely is not, as the
// bounds sit a relative 1e-9 either side of r², far beyond the rounding
// of d², r² or dist. Only pairs in the thin shell between them, and NaN
// squares, pay for dist. A range that is not positive or whose square is
// not comfortably normal (NaN, tiny, overflowing) gets lo = -1 and
// hi = +Inf, which send every pair to dist.
func linkBounds(r float64) (lo, hi float64) {
	if r2 := r * r; r > 0 && r2 >= 1e-250 && r2 <= 1e250 {
		return r2 * (1 - 1e-9), r2 * (1 + 1e-9)
	}
	return -1, math.Inf(1)
}

// radioNeighbors returns every node's radio neighbors — the nodes within
// radioRange of it, by the same dist <= radioRange test as a check of
// every pair — in compressed-sparse-row form: node i's ascending list is
// nbrs[off[i]:off[i+1]], and off has len(pos)+1 entries. The sink is a
// radio neighbor like any other: verdict neighborhoods may include it (a
// suspected neighborhood adjacent to the sink still identifies the stop
// node itself). It fails only when the links would overflow the int32
// offsets.
//
// Nodes are bucketed into a grid of square cells at least radioRange
// wide, so an in-range pair always sits in the same or adjacent cells and
// each node tests only its 3×3 block instead of every other node. The
// cells are widened a hair past radioRange to absorb rounding in the
// cell arithmetic, and further when the field is much wider than the
// range, which caps the grid at about 4× the node count.
func radioNeighbors(pos []Point, radioRange float64) (off []int32, nbrs []packet.NodeID, err error) {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pos {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	cellW := max(radioRange*(1+1e-9), max(maxX-minX, maxY-minY)/math.Sqrt(float64(len(pos))))
	nx, ny := 1, 1
	if cellW > 0 && !math.IsInf(cellW, 0) {
		nx, ny = int((maxX-minX)/cellW)+1, int((maxY-minY)/cellW)+1
	} else {
		// Coincident points, or a zero, infinite or NaN range: one cell,
		// which tests every pair.
		cellW = math.Inf(1)
	}
	coord := func(v, lo float64, cells int) int {
		return min(max(int((v-lo)/cellW), 0), cells-1)
	}

	// Counting sort of the nodes by cell, as routeTree.build sorts nodes
	// by parent: cell c ends up holding byCell[start[c]:start[c+1]], in
	// ascending ID order, with cellPts holding their positions in the
	// same order so the scan below reads memory front to back.
	cellOf := make([]int32, len(pos))
	start := make([]int32, nx*ny+1)
	for i, p := range pos {
		cellOf[i] = int32(coord(p.Y, minY, ny)*nx + coord(p.X, minX, nx))
		start[cellOf[i]]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	byCell := make([]packet.NodeID, len(pos))
	cellPts := make([]Point, len(pos))
	for i := len(pos) - 1; i >= 0; i-- {
		start[cellOf[i]]--
		byCell[start[cellOf[i]]] = packet.NodeID(i)
		cellPts[start[cellOf[i]]] = pos[i]
	}

	// Each in-range pair once, from its lower end: node i's upper run —
	// its neighbors above i, kept ascending by insertion — goes into up,
	// and once i is scanned cellOf[i], no longer needed, records where the
	// run ends. off[i] counts i's degree. up is pre-sized for a uniform
	// field, n²πr²/2 pairs over the bounding box.
	est := len(pos)
	if area := (maxX - minX) * (maxY - minY); area > 0 {
		n := float64(len(pos))
		if e := n * n * math.Pi * radioRange * radioRange / (2 * area); e < n*n/2 {
			est += int(e)
		}
	}
	lo, hi := linkBounds(radioRange)
	off = make([]int32, len(pos)+1)
	up := make([]packet.NodeID, 0, est)
	for i, p := range pos {
		cx, cy := int(cellOf[i])%nx, int(cellOf[i])/nx
		run := len(up)
		for y := max(cy-1, 0); y <= min(cy+1, ny-1); y++ {
			for x := max(cx-1, 0); x <= min(cx+1, nx-1); x++ {
				c := y*nx + x
				for k := start[c]; k < start[c+1]; k++ {
					j := byCell[k]
					if int(j) <= i {
						continue
					}
					q := cellPts[k]
					dx, dy := p.X-q.X, p.Y-q.Y
					if d2 := dx*dx + dy*dy; !(d2 < lo) && (d2 > hi || !(dist(p, q) <= radioRange)) {
						continue
					}
					up = append(up, j)
					for m := len(up) - 1; m > run && up[m-1] > j; m-- {
						up[m], up[m-1] = up[m-1], j
					}
					off[j]++
				}
			}
		}
		if len(up) > maxLinks {
			return nil, nil, fmt.Errorf("topology: more than %d radio links", maxLinks)
		}
		off[i] += int32(len(up) - run)
		cellOf[i] = int32(len(up))
	}

	// Prefix sums turn each degree into the end of its node's list. The
	// lists then fill from their ends, highest node first: node i's upper
	// run goes in whole, and i joins the lower part of every node in the
	// run. Lower neighbors so arrive in descending order at descending
	// slots, which leaves every list ascending, and each cursor off[i]
	// stops at the start of i's list.
	for i := 1; i < len(pos); i++ {
		off[i] += off[i-1]
	}
	off[len(pos)] = off[len(pos)-1]
	nbrs = make([]packet.NodeID, off[len(pos)])
	for i := len(pos) - 1; i >= 0; i-- {
		var runStart int32
		if i > 0 {
			runStart = cellOf[i-1]
		}
		run := up[runStart:cellOf[i]]
		off[i] -= int32(len(run))
		copy(nbrs[off[i]:], run)
		for _, j := range run {
			off[j]--
			nbrs[off[j]] = packet.NodeID(i)
		}
	}
	return off, nbrs, nil
}

// adj returns id's ascending radio neighbors, aliasing the shared graph.
func (nw *Network) adj(id packet.NodeID) []packet.NodeID {
	return nw.nbrs[nw.nbrOff[id]:nw.nbrOff[int(id)+1]]
}

// route runs the sink-rooted BFS over the radio graph, visiting each
// sorted neighbor list in order and skipping nodes for which nodeDown
// reports true and edges for which linkDown does (either may be nil; the
// sink is never down). Parents point one hop closer to the sink; a node
// the search never reaches keeps depth -1 and parent 0.
func (nw *Network) route(nodeDown func(packet.NodeID) bool, linkDown func(a, b packet.NodeID) bool) ([]packet.NodeID, []int32) {
	parent := make([]packet.NodeID, len(nw.pos))
	depth := make([]int32, len(nw.pos))
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	queue := make([]packet.NodeID, 1, len(nw.pos))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range nw.adj(u) {
			if depth[v] != -1 {
				continue
			}
			if nodeDown != nil && v != packet.SinkID && nodeDown(v) {
				continue
			}
			if linkDown != nil && linkDown(u, v) {
				continue
			}
			depth[v] = depth[u] + 1
			parent[v] = u
			queue = append(queue, v)
		}
	}
	return parent, depth
}

// Rewire returns a new Network over the same nodes and radio graph whose
// routing tree re-picks each node's parent uniformly among its
// minimum-depth neighbors — the kind of route change tree protocols make
// when link quality shifts. Hop distances (and therefore the relative
// upstream relation along any surviving route) are preserved. Nodes listed
// in pinned keep their current parent.
func (nw *Network) Rewire(seed int64, pinned ...packet.NodeID) *Network {
	rng := rand.New(rand.NewSource(seed))
	out := &Network{
		pos:    nw.pos,
		nbrOff: nw.nbrOff,
		nbrs:   nw.nbrs,
		parent: make([]packet.NodeID, len(nw.parent)),
		depth:  nw.depth,
	}
	// A pinned node is marked by parenting it to itself, which no node
	// of a routing tree is; the loop below keeps its parent and moves on.
	for _, id := range pinned {
		if id != packet.SinkID && int(id) < len(out.parent) {
			out.parent[id] = id
		}
	}
	for i := 1; i < len(out.parent); i++ {
		id := packet.NodeID(i)
		pin := out.parent[i] == id
		out.parent[i] = nw.parent[i]
		if pin {
			continue
		}
		// Count the candidates, draw one, and walk to it: the same draw
		// as indexing a list of them, without building the list.
		want := nw.depth[i] - 1
		ns := nw.adj(id)
		count := 0
		for _, nb := range ns {
			if nw.depth[nb] == want {
				count++
			}
		}
		if count == 0 {
			continue
		}
		k := rng.Intn(count)
		for _, nb := range ns {
			if nw.depth[nb] != want {
				continue
			}
			if k == 0 {
				out.parent[i] = nb
				break
			}
			k--
		}
	}
	return out
}

// Reroute re-runs the BFS routing computation over the radio graph,
// skipping nodes for which nodeDown reports true and edges for which
// linkDown reports true — the route repair a tree protocol performs when a
// parent dies or a link fades. Either predicate may be nil (nothing is
// down). The returned Network shares positions and the neighbor graph with
// the receiver; nodes cut off from the sink by the faults lose their route
// (HasRoute reports false, Depth returns -1) until a later Reroute
// reconnects them. Surviving nodes may be assigned a different parent than
// before, but hop distances are the true distances in the degraded graph,
// so the relative upstream relation along any surviving route is exact.
// The sink never goes down; nodeDown is not consulted for it. BFS visits
// the sorted neighbor lists in order, so the repaired tree is a pure
// function of the fault predicates.
func (nw *Network) Reroute(nodeDown func(packet.NodeID) bool, linkDown func(a, b packet.NodeID) bool) *Network {
	out := &Network{pos: nw.pos, nbrOff: nw.nbrOff, nbrs: nw.nbrs}
	out.parent, out.depth = nw.route(nodeDown, linkDown)
	return out
}

// HasRoute reports whether id currently has a path to the sink. Networks
// built by the constructors are fully connected; only Reroute can produce
// orphans.
func (nw *Network) HasRoute(id packet.NodeID) bool { return nw.depth[id] >= 0 }

// NumNodes returns the number of sensor nodes (excluding the sink).
func (nw *Network) NumNodes() int { return len(nw.pos) - 1 }

// Nodes returns all sensor node IDs, 1..NumNodes().
func (nw *Network) Nodes() []packet.NodeID {
	out := make([]packet.NodeID, nw.NumNodes())
	for i := range out {
		out[i] = packet.NodeID(i + 1)
	}
	return out
}

// Position returns a node's coordinates.
func (nw *Network) Position(id packet.NodeID) Point { return nw.pos[id] }

// Parent returns a node's next hop toward the sink.
func (nw *Network) Parent(id packet.NodeID) packet.NodeID { return nw.parent[id] }

// Depth returns a node's hop distance from the sink.
func (nw *Network) Depth(id packet.NodeID) int { return int(nw.depth[id]) }

// Neighbors returns a node's radio neighbors (possibly including the sink),
// sorted, as a fresh slice.
func (nw *Network) Neighbors(id packet.NodeID) []packet.NodeID {
	return slices.Clone(nw.adj(id))
}

// Degree returns the number of radio neighbors of id, the "d" in the
// paper's O(d) anonymous-ID search optimization.
func (nw *Network) Degree(id packet.NodeID) int { return len(nw.adj(id)) }

// Neighborhood returns the one-hop neighborhood of id including id itself —
// the set a traceback verdict localizes a mole to.
func (nw *Network) Neighborhood(id packet.NodeID) []packet.NodeID {
	ns := nw.adj(id)
	out := make([]packet.NodeID, 0, len(ns)+1)
	out = append(out, id)
	return append(out, ns...)
}

// Forwarders returns the chain of forwarding nodes between src (exclusive)
// and the sink (exclusive), most-upstream first: for S -> V1 -> ... -> Vn
// it returns [V1 ... Vn].
func (nw *Network) Forwarders(src packet.NodeID) []packet.NodeID {
	var out []packet.NodeID
	for v := nw.parent[src]; v != packet.SinkID; v = nw.parent[v] {
		out = append(out, v)
	}
	return out
}

// PathToSink returns src followed by its forwarders: [src V1 ... Vn].
func (nw *Network) PathToSink(src packet.NodeID) []packet.NodeID {
	return append([]packet.NodeID{src}, nw.Forwarders(src)...)
}

// DeepestNode returns the node with the largest hop count, breaking ties by
// smaller ID. Experiments use it as the farthest mole position.
func (nw *Network) DeepestNode() packet.NodeID {
	best := packet.NodeID(1)
	for i := 2; i <= nw.NumNodes(); i++ {
		if nw.depth[i] > nw.depth[best] {
			best = packet.NodeID(i)
		}
	}
	return best
}

// MaxDepth returns the depth of the deepest node.
func (nw *Network) MaxDepth() int {
	var deepest int32
	for _, d := range nw.depth[1:] {
		deepest = max(deepest, d)
	}
	return int(deepest)
}

// AvgDegree returns the mean sensor-node degree.
func (nw *Network) AvgDegree() float64 {
	if nw.NumNodes() == 0 {
		return 0
	}
	total := nw.nbrOff[len(nw.nbrOff)-1] - nw.nbrOff[1]
	return float64(total) / float64(nw.NumNodes())
}

// AreNeighbors reports whether a and b are within radio range.
func (nw *Network) AreNeighbors(a, b packet.NodeID) bool {
	_, ok := slices.BinarySearch(nw.adj(a), b)
	return ok
}
