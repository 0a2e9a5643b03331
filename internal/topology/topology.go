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
type Network struct {
	pos       []Point // indexed by NodeID; pos[0] is the sink
	neighbors [][]packet.NodeID
	parent    []packet.NodeID
	depth     []int
}

// NewChain builds a linear network of n forwarding nodes plus the sink:
// node 1 is adjacent to the sink and node n is the deepest. A source placed
// at node n forwards over the n-1 nodes below it; use NewChain(n+1) and
// source n+1 for a "path of n forwarding nodes" in the paper's sense.
func NewChain(n int) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: chain needs at least 1 node, got %d", n)
	}
	nw := &Network{
		pos:       make([]Point, n+1),
		neighbors: make([][]packet.NodeID, n+1),
		parent:    make([]packet.NodeID, n+1),
		depth:     make([]int, n+1),
	}
	for i := 0; i <= n; i++ {
		nw.pos[i] = Point{X: float64(i)}
		nw.depth[i] = i
		if i >= 1 {
			nw.parent[i] = packet.NodeID(i - 1)
			nw.neighbors[i] = append(nw.neighbors[i], packet.NodeID(i-1))
		}
		if i < n {
			nw.neighbors[i] = append(nw.neighbors[i], packet.NodeID(i+1))
		}
	}
	return nw, nil
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
		if err == nil {
			return nw, nil
		}
	}
	return nil, fmt.Errorf("topology: no connected placement for %d nodes, side %g, range %g after %d attempts",
		cfg.Nodes, cfg.Side, cfg.RadioRange, attempts)
}

// fromPositions builds the neighbor graph and BFS routing tree. It fails if
// any node is unreachable from the sink.
func fromPositions(pos []Point, radioRange float64) (*Network, error) {
	n := len(pos) - 1
	nw := &Network{
		pos:       pos,
		neighbors: radioNeighbors(pos, radioRange),
		parent:    make([]packet.NodeID, n+1),
		depth:     make([]int, n+1),
	}
	// BFS from the sink; parents point one hop closer to the sink.
	for i := range nw.depth {
		nw.depth[i] = -1
	}
	nw.depth[0] = 0
	queue := []packet.NodeID{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range nw.neighbors[u] {
			if nw.depth[v] == -1 {
				nw.depth[v] = nw.depth[u] + 1
				nw.parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	for i := 1; i <= n; i++ {
		if nw.depth[i] == -1 {
			return nil, fmt.Errorf("topology: node %d unreachable from sink", i)
		}
	}
	return nw, nil
}

// radioNeighbors returns every node's radio neighbors — the nodes within
// radioRange of it, by the same dist <= radioRange test as a check of
// every pair — as ascending lists sharing one backing array. The sink is
// a radio neighbor like any other: verdict neighborhoods may include it
// (a suspected neighborhood adjacent to the sink still identifies the
// stop node itself).
//
// Nodes are bucketed into a grid of square cells at least radioRange
// wide, so an in-range pair always sits in the same or adjacent cells and
// each node tests only its 3×3 block instead of every other node. The
// cells are widened a hair past radioRange to absorb rounding in the
// cell arithmetic, and further when the field is much wider than the
// range, which caps the grid at about 4× the node count.
func radioNeighbors(pos []Point, radioRange float64) [][]packet.NodeID {
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
	// ascending ID order.
	cellOf := make([]int, len(pos))
	start := make([]int, nx*ny+1)
	for i, p := range pos {
		cellOf[i] = coord(p.Y, minY, ny)*nx + coord(p.X, minX, nx)
		start[cellOf[i]]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	byCell := make([]packet.NodeID, len(pos))
	for i := len(pos) - 1; i >= 0; i-- {
		start[cellOf[i]]--
		byCell[start[cellOf[i]]] = packet.NodeID(i)
	}

	// Each in-range pair once, lower ID first.
	var edges [][2]packet.NodeID
	degree := make([]int, len(pos))
	for i, p := range pos {
		cx, cy := cellOf[i]%nx, cellOf[i]/nx
		for y := max(cy-1, 0); y <= min(cy+1, ny-1); y++ {
			for x := max(cx-1, 0); x <= min(cx+1, nx-1); x++ {
				c := y*nx + x
				for _, j := range byCell[start[c]:start[c+1]] {
					if int(j) > i && dist(p, pos[j]) <= radioRange {
						edges = append(edges, [2]packet.NodeID{packet.NodeID(i), j})
						degree[i]++
						degree[j]++
					}
				}
			}
		}
	}

	neighbors := make([][]packet.NodeID, len(pos))
	all := make([]packet.NodeID, 2*len(edges))
	off := 0
	for i, d := range degree {
		neighbors[i] = all[off : off : off+d]
		off += d
	}
	for _, e := range edges {
		neighbors[e[0]] = append(neighbors[e[0]], e[1])
		neighbors[e[1]] = append(neighbors[e[1]], e[0])
	}
	for _, ns := range neighbors {
		slices.Sort(ns)
	}
	return neighbors
}

// Rewire returns a new Network over the same nodes and radio graph whose
// routing tree re-picks each node's parent uniformly among its
// minimum-depth neighbors — the kind of route change tree protocols make
// when link quality shifts. Hop distances (and therefore the relative
// upstream relation along any surviving route) are preserved. Nodes listed
// in pinned keep their current parent.
func (nw *Network) Rewire(seed int64, pinned ...packet.NodeID) *Network {
	rng := rand.New(rand.NewSource(seed))
	keep := make(map[packet.NodeID]bool, len(pinned))
	for _, id := range pinned {
		keep[id] = true
	}
	out := &Network{
		pos:       nw.pos,
		neighbors: nw.neighbors,
		parent:    make([]packet.NodeID, len(nw.parent)),
		depth:     nw.depth,
	}
	copy(out.parent, nw.parent)
	for i := 1; i < len(nw.parent); i++ {
		id := packet.NodeID(i)
		if keep[id] {
			continue
		}
		var candidates []packet.NodeID
		for _, nb := range nw.neighbors[i] {
			if nw.depth[nb] == nw.depth[i]-1 {
				candidates = append(candidates, nb)
			}
		}
		if len(candidates) > 0 {
			out.parent[i] = candidates[rng.Intn(len(candidates))]
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
	out := &Network{
		pos:       nw.pos,
		neighbors: nw.neighbors,
		parent:    make([]packet.NodeID, len(nw.parent)),
		depth:     make([]int, len(nw.depth)),
	}
	for i := range out.depth {
		out.depth[i] = -1
	}
	out.depth[0] = 0
	queue := []packet.NodeID{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range nw.neighbors[u] {
			if out.depth[v] != -1 {
				continue
			}
			if nodeDown != nil && v != packet.SinkID && nodeDown(v) {
				continue
			}
			if linkDown != nil && linkDown(u, v) {
				continue
			}
			out.depth[v] = out.depth[u] + 1
			out.parent[v] = u
			queue = append(queue, v)
		}
	}
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
func (nw *Network) Depth(id packet.NodeID) int { return nw.depth[id] }

// Neighbors returns a node's radio neighbors (possibly including the sink),
// sorted, as a fresh slice.
func (nw *Network) Neighbors(id packet.NodeID) []packet.NodeID {
	out := make([]packet.NodeID, len(nw.neighbors[id]))
	copy(out, nw.neighbors[id])
	return out
}

// Degree returns the number of radio neighbors of id, the "d" in the
// paper's O(d) anonymous-ID search optimization.
func (nw *Network) Degree(id packet.NodeID) int { return len(nw.neighbors[id]) }

// Neighborhood returns the one-hop neighborhood of id including id itself —
// the set a traceback verdict localizes a mole to.
func (nw *Network) Neighborhood(id packet.NodeID) []packet.NodeID {
	out := make([]packet.NodeID, 0, len(nw.neighbors[id])+1)
	out = append(out, id)
	out = append(out, nw.neighbors[id]...)
	return out
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
	max := 0
	for i := 1; i <= nw.NumNodes(); i++ {
		if nw.depth[i] > max {
			max = nw.depth[i]
		}
	}
	return max
}

// AvgDegree returns the mean sensor-node degree.
func (nw *Network) AvgDegree() float64 {
	if nw.NumNodes() == 0 {
		return 0
	}
	total := 0
	for i := 1; i <= nw.NumNodes(); i++ {
		total += len(nw.neighbors[i])
	}
	return float64(total) / float64(nw.NumNodes())
}

// AreNeighbors reports whether a and b are within radio range.
func (nw *Network) AreNeighbors(a, b packet.NodeID) bool {
	for _, v := range nw.neighbors[a] {
		if v == b {
			return true
		}
	}
	return false
}
