package topology

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pnm/internal/packet"
)

// bruteFromPositions is the all-pairs construction the grid search
// replaced, kept as the oracle: every pair tested with dist <= r, lists
// sorted, then the same sink-rooted BFS. ok is false when some node is
// unreachable.
func bruteFromPositions(pos []Point, r float64) (neighbors [][]packet.NodeID, parent []packet.NodeID, depth []int, ok bool) {
	n := len(pos) - 1
	neighbors = make([][]packet.NodeID, n+1)
	for i := 0; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			if dist(pos[i], pos[j]) <= r {
				neighbors[i] = append(neighbors[i], packet.NodeID(j))
				neighbors[j] = append(neighbors[j], packet.NodeID(i))
			}
		}
	}
	parent = make([]packet.NodeID, n+1)
	depth = make([]int, n+1)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	queue := []packet.NodeID{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range neighbors[u] {
			if depth[v] == -1 {
				depth[v] = depth[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return neighbors, parent, depth, !slices.Contains(depth, -1)
}

// randomField draws a field of the shapes the grid must get exactly
// right: uniform placements at ranges from far below to far above the
// node spacing, lattice placements whose range equals the spacing (pairs
// exactly at distance r), and fields with coincident nodes.
func randomField(rng *rand.Rand) ([]Point, float64) {
	n := 1 + rng.Intn(150)
	pos := make([]Point, n+1)
	switch rng.Intn(3) {
	case 0: // uniform square, range from 0.01 to 2× the side
		side := 0.5 + rng.Float64()*20
		for i := range pos {
			pos[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		return pos, side * math.Pow(200, rng.Float64()) / 100
	case 1: // lattice with range at the spacing or its diagonal
		cols := 1 + rng.Intn(12)
		spacing := []float64{0.1, 0.3, 1, 1.7}[rng.Intn(4)]
		for i := range pos {
			pos[i] = Point{X: float64(i%cols) * spacing, Y: float64(i/cols) * spacing}
		}
		return pos, spacing * []float64{1, math.Sqrt2}[rng.Intn(2)]
	default: // few distinct spots, many nodes on each
		spots := 1 + rng.Intn(5)
		xs := make([]Point, spots)
		for i := range xs {
			xs[i] = Point{X: rng.Float64() * 3, Y: rng.Float64() * 3}
		}
		for i := range pos {
			pos[i] = xs[rng.Intn(spots)]
		}
		return pos, rng.Float64() * 2
	}
}

// radioGraph builds the radio graph of pos alone, connected or not, as a
// Network without a routing tree, after checking the CSR invariants: one
// offset per node plus one, starting at 0, never decreasing, and ending
// at the length of the ID array.
func radioGraph(t *testing.T, pos []Point, r float64) *Network {
	t.Helper()
	off, nbrs, err := radioNeighbors(pos, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(off) != len(pos)+1 || off[0] != 0 || int(off[len(pos)]) != len(nbrs) {
		t.Fatalf("%d nodes: %d offsets from %d to %d over %d IDs",
			len(pos), len(off), off[0], off[len(off)-1], len(nbrs))
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			t.Fatalf("offsets decrease at node %d: %d then %d", i-1, off[i-1], off[i])
		}
	}
	return &Network{pos: pos, nbrOff: off, nbrs: nbrs}
}

// TestRadioNeighborsMatchBruteForce checks the grid neighbor search
// against the all-pairs oracle on random fields: identical sorted
// neighbor lists, sorted, through Neighbors, Degree, AreNeighbors (both
// ways round, so the lists are symmetric) and AvgDegree, and fromPositions
// succeeds exactly when the oracle's BFS reaches every node, with
// identical parents and depths.
func TestRadioNeighborsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		pos, r := randomField(rand.New(rand.NewSource(seed)))
		wantNbrs, wantParent, wantDepth, connected := bruteFromPositions(pos, r)
		g := radioGraph(t, pos, r)
		total := 0
		for i := range pos {
			id := packet.NodeID(i)
			got := g.Neighbors(id)
			if !slices.IsSorted(got) || !slices.Equal(got, wantNbrs[i]) || g.Degree(id) != len(wantNbrs[i]) {
				t.Logf("seed %d, %d nodes, r=%g: node %d neighbors %v (degree %d), want %v",
					seed, len(pos), r, i, got, g.Degree(id), wantNbrs[i])
				return false
			}
			for j := range pos {
				want := slices.Contains(wantNbrs[i], packet.NodeID(j))
				if g.AreNeighbors(id, packet.NodeID(j)) != want || g.AreNeighbors(packet.NodeID(j), id) != want {
					t.Logf("seed %d: AreNeighbors(%d, %d) both ways, want %v", seed, i, j, want)
					return false
				}
			}
			if i > 0 {
				total += len(wantNbrs[i])
			}
		}
		if want := float64(total) / float64(len(pos)-1); g.AvgDegree() != want {
			t.Logf("seed %d: AvgDegree %g, want %g", seed, g.AvgDegree(), want)
			return false
		}
		nw, err := fromPositions(pos, r)
		if (err == nil) != connected {
			t.Logf("seed %d: fromPositions err=%v, oracle connected=%v", seed, err, connected)
			return false
		}
		if err != nil {
			return true
		}
		if !slices.Equal(nw.parent, wantParent) {
			t.Logf("seed %d: routing tree differs from the oracle's", seed)
			return false
		}
		for i := range pos {
			if nw.Depth(packet.NodeID(i)) != wantDepth[i] {
				t.Logf("seed %d: node %d depth %d, want %d", seed, i, nw.Depth(packet.NodeID(i)), wantDepth[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestRadioNeighborsDegenerateRanges covers the single-cell fallback: a
// zero range links only coincident nodes, and NaN and infinite ranges
// behave as the all-pairs test does.
func TestRadioNeighborsDegenerateRanges(t *testing.T) {
	pos := []Point{{0, 0}, {1, 1}, {1, 1}, {5, 0}}
	for _, r := range []float64{0, math.NaN(), math.Inf(1), -1} {
		want, _, _, _ := bruteFromPositions(pos, r)
		g := radioGraph(t, pos, r)
		for i := range pos {
			if got := g.Neighbors(packet.NodeID(i)); !slices.Equal(got, want[i]) {
				t.Errorf("r=%g: node %d neighbors %v, want %v", r, i, got, want[i])
			}
		}
	}
}

// TestRadioNeighborsBoundaryPairs places pairs radioRange apart at every
// phase against the cell boundaries, in steps of 1/2000 of the range, and
// checks each pair's link against the dist <= radioRange test itself. An
// in-range pair two cells apart — what cells even slightly narrower than
// the range would produce — cannot hide. The pairs sit on a lattice
// dense enough (spacing 1.2 × range) that the grid keeps range-wide
// cells.
func TestRadioNeighborsBoundaryPairs(t *testing.T) {
	const phases, cols = 2000, 45
	for _, r := range []float64{0.3, 1, 1.7} {
		pos := []Point{{}}
		for j := 0; j < phases; j++ {
			x := float64(j%cols)*1.2*r + float64(j)*r/phases
			y := float64(j/cols) * 1.2 * r
			pos = append(pos, Point{X: x, Y: y}, Point{X: x + r, Y: y})
		}
		g := radioGraph(t, pos, r)
		for a := 1; a < len(pos); a += 2 {
			b := packet.NodeID(a + 1)
			if want := dist(pos[a], pos[b]) <= r; g.AreNeighbors(packet.NodeID(a), b) != want {
				t.Fatalf("r=%g: nodes %d at %v and %v at %v: linked=%v, want %v",
					r, a, pos[a], b, pos[b], !want, want)
			}
		}
	}
}

// neighborsSink and bruteSink keep the benchmarked calls from being
// optimized away.
var (
	neighborsSink []packet.NodeID
	bruteSink     [][]packet.NodeID
)

// BenchmarkRadioNeighbors times the neighbor search on a 2,048-node
// field at the connectivity threshold (the repository benchmark's
// keyed-2k field), through the grid and through the all-pairs oracle.
func BenchmarkRadioNeighbors(b *testing.B) {
	const nodes = 2048
	side := math.Sqrt(nodes * math.Pi / (math.Log(nodes) + 5))
	rng := rand.New(rand.NewSource(17))
	pos := make([]Point, nodes+1)
	for i := 1; i <= nodes; i++ {
		pos[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, neighborsSink, _ = radioNeighbors(pos, 1)
		}
	})
	b.Run("allpairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bruteSink, _, _, _ = bruteFromPositions(pos, 1)
		}
	})
}
