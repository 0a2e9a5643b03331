package topology

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pnm/internal/packet"
)

func TestNewChainStructure(t *testing.T) {
	nw, err := NewChain(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.NumNodes(); got != 5 {
		t.Fatalf("NumNodes = %d, want 5", got)
	}
	for i := 1; i <= 5; i++ {
		id := packet.NodeID(i)
		if got, want := nw.Parent(id), packet.NodeID(i-1); got != want {
			t.Errorf("Parent(%v) = %v, want %v", id, got, want)
		}
		if got := nw.Depth(id); got != i {
			t.Errorf("Depth(%v) = %d, want %d", id, got, i)
		}
	}
	if got := nw.MaxDepth(); got != 5 {
		t.Errorf("MaxDepth = %d, want 5", got)
	}
	if got := nw.DeepestNode(); got != 5 {
		t.Errorf("DeepestNode = %v, want V5", got)
	}
}

func TestNewChainForwarders(t *testing.T) {
	nw, err := NewChain(4)
	if err != nil {
		t.Fatal(err)
	}
	got := nw.Forwarders(4)
	want := []packet.NodeID{3, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("Forwarders(4) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Forwarders(4) = %v, want %v", got, want)
		}
	}
	if path := nw.PathToSink(4); path[0] != 4 || len(path) != 4 {
		t.Fatalf("PathToSink(4) = %v", path)
	}
}

func TestNewChainNeighborhoods(t *testing.T) {
	nw, err := NewChain(4)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		id   packet.NodeID
		want []packet.NodeID
	}{
		{1, []packet.NodeID{packet.SinkID, 2}},
		{2, []packet.NodeID{1, 3}},
		{4, []packet.NodeID{3}},
	}
	for _, tt := range tests {
		got := nw.Neighbors(tt.id)
		if len(got) != len(tt.want) {
			t.Fatalf("Neighbors(%v) = %v, want %v", tt.id, got, tt.want)
		}
		for i := range tt.want {
			if got[i] != tt.want[i] {
				t.Fatalf("Neighbors(%v) = %v, want %v", tt.id, got, tt.want)
			}
		}
	}
	hood := nw.Neighborhood(2)
	if len(hood) != 3 || hood[0] != 2 {
		t.Fatalf("Neighborhood(2) = %v", hood)
	}
}

func TestNewChainInvalid(t *testing.T) {
	if _, err := NewChain(0); err == nil {
		t.Fatal("want error for empty chain")
	}
}

func TestNewGridConnected(t *testing.T) {
	nw, err := NewGrid(GridConfig{Width: 6, Height: 5, Spacing: 1, RadioRange: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.NumNodes(); got != 29 { // 30 positions, one is the sink
		t.Fatalf("NumNodes = %d, want 29", got)
	}
	for _, id := range nw.Nodes() {
		if nw.Depth(id) <= 0 {
			t.Fatalf("node %v has depth %d", id, nw.Depth(id))
		}
	}
}

func TestNewGridDiagonalRange(t *testing.T) {
	// Range 1.5 covers diagonals: interior nodes have 8 neighbors.
	nw, err := NewGrid(GridConfig{Width: 5, Height: 5, Spacing: 1, RadioRange: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	// Node at grid position (2,2) has index 2*5+2 = 12.
	if got := nw.Degree(12); got != 8 {
		t.Fatalf("interior degree = %d, want 8", got)
	}
}

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(GridConfig{Width: 0, Height: 3}); err == nil {
		t.Fatal("want error for zero width")
	}
	if _, err := NewGrid(GridConfig{Width: 3, Height: 3, Spacing: 2, RadioRange: 1}); err == nil {
		t.Fatal("want error for range below spacing")
	}
}

func TestRandomGeometricInvariants(t *testing.T) {
	nw, err := NewRandomGeometric(GeometricConfig{Nodes: 200, Side: 10, RadioRange: 1.6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range nw.Nodes() {
		parent := nw.Parent(id)
		if got, want := nw.Depth(id), nw.Depth(parent)+1; got != want {
			t.Fatalf("Depth(%v) = %d, want parent depth + 1 = %d", id, got, want)
		}
		if !nw.AreNeighbors(id, parent) && parent != packet.SinkID {
			t.Fatalf("parent %v of %v is not a radio neighbor", parent, id)
		}
		// Walking parents must reach the sink without cycles.
		steps := 0
		for v := id; v != packet.SinkID; v = nw.Parent(v) {
			if steps++; steps > nw.NumNodes() {
				t.Fatalf("parent chain from %v does not reach the sink", id)
			}
		}
	}
}

func TestRandomGeometricDeterministic(t *testing.T) {
	cfg := GeometricConfig{Nodes: 50, Side: 5, RadioRange: 1.5, Seed: 7}
	a, err := NewRandomGeometric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomGeometric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range a.Nodes() {
		if a.Parent(id) != b.Parent(id) {
			t.Fatalf("same seed produced different routing trees at %v", id)
		}
	}
}

func TestRandomGeometricDisconnectedFails(t *testing.T) {
	_, err := NewRandomGeometric(GeometricConfig{
		Nodes: 20, Side: 100, RadioRange: 1, Seed: 1, MaxAttempts: 3,
	})
	if err == nil {
		t.Fatal("want error for hopelessly sparse placement")
	}
}

func TestRandomGeometricConfigValidation(t *testing.T) {
	if _, err := NewRandomGeometric(GeometricConfig{Nodes: 0, Side: 1, RadioRange: 1}); err == nil {
		t.Fatal("want error for zero nodes")
	}
	if _, err := NewRandomGeometric(GeometricConfig{Nodes: 5, Side: 0, RadioRange: 1}); err == nil {
		t.Fatal("want error for zero side")
	}
}

func TestNeighborSymmetryProperty(t *testing.T) {
	nw, err := NewRandomGeometric(GeometricConfig{Nodes: 120, Side: 8, RadioRange: 1.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := nw.NumNodes()
	f := func(a, b uint16) bool {
		u := packet.NodeID(int(a)%n + 1)
		v := packet.NodeID(int(b)%n + 1)
		return nw.AreNeighbors(u, v) == nw.AreNeighbors(v, u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSinkAtCornerDeepens(t *testing.T) {
	center, err := NewRandomGeometric(GeometricConfig{Nodes: 150, Side: 8, RadioRange: 1.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	corner, err := NewRandomGeometric(GeometricConfig{Nodes: 150, Side: 8, RadioRange: 1.5, Seed: 11, SinkAtCorner: true})
	if err != nil {
		t.Fatal(err)
	}
	if corner.MaxDepth() <= center.MaxDepth() {
		t.Fatalf("corner sink max depth %d not deeper than center %d", corner.MaxDepth(), center.MaxDepth())
	}
}

func TestAvgDegree(t *testing.T) {
	nw, err := NewChain(3)
	if err != nil {
		t.Fatal(err)
	}
	// Degrees: node1 -> {sink,2}; node2 -> {1,3}; node3 -> {2}. Mean = 5/3.
	if got := nw.AvgDegree(); got < 1.66 || got > 1.67 {
		t.Fatalf("AvgDegree = %g, want 5/3", got)
	}
}

func TestRewirePreservesDepthsAndGraph(t *testing.T) {
	base, err := NewRandomGeometric(GeometricConfig{Nodes: 120, Side: 7, RadioRange: 1.5, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	rewired := base.Rewire(5)
	changed := 0
	for _, id := range base.Nodes() {
		if got, want := rewired.Depth(id), base.Depth(id); got != want {
			t.Fatalf("Depth(%v) = %d, want %d", id, got, want)
		}
		// The rewired parent must be a minimum-depth radio neighbor.
		p := rewired.Parent(id)
		if !base.AreNeighbors(id, p) && p != packet.SinkID {
			t.Fatalf("rewired parent %v of %v is not a neighbor", p, id)
		}
		if base.Depth(p) != base.Depth(id)-1 {
			t.Fatalf("rewired parent %v of %v has depth %d", p, id, base.Depth(p))
		}
		if p != base.Parent(id) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("rewire changed nothing")
	}
}

func TestRewirePinsNodes(t *testing.T) {
	base, err := NewRandomGeometric(GeometricConfig{Nodes: 120, Side: 7, RadioRange: 1.5, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	deep := base.DeepestNode()
	rewired := base.Rewire(6, deep)
	if rewired.Parent(deep) != base.Parent(deep) {
		t.Fatal("pinned node's parent changed")
	}
}

func TestDOTOutput(t *testing.T) {
	nw, err := NewChain(3)
	if err != nil {
		t.Fatal(err)
	}
	out := nw.DOT(DOTConfig{
		Highlight:  map[packet.NodeID]string{3: "red"},
		RadioEdges: true,
	})
	for _, want := range []string{
		"digraph sensornet", "doublecircle", "n1 -> sink", "n3 -> n2", "fillcolor=\"red\"",
	} {
		if !containsStr(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && strings.Contains(haystack, needle)
}

func TestRerouteAroundDeadParent(t *testing.T) {
	// 3x3 grid with diagonal range: every interior node has several
	// minimum-depth neighbors, so killing one parent must re-home its
	// children instead of orphaning them.
	nw, err := NewGrid(GridConfig{Width: 3, Height: 3, Spacing: 1, RadioRange: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a node at depth 1 that is some deeper node's parent.
	var dead packet.NodeID
	for _, id := range nw.Nodes() {
		if nw.Depth(id) == 1 {
			for _, other := range nw.Nodes() {
				if other != id && nw.Parent(other) == id {
					dead = id
				}
			}
		}
	}
	if dead == 0 {
		t.Fatal("no depth-1 parent found")
	}
	repaired := nw.Reroute(func(id packet.NodeID) bool { return id == dead }, nil)
	if repaired.HasRoute(dead) {
		t.Fatalf("dead node %v still routed", dead)
	}
	for _, id := range nw.Nodes() {
		if id == dead {
			continue
		}
		if !repaired.HasRoute(id) {
			t.Fatalf("node %v orphaned by a single dead node in a dense grid", id)
		}
		if repaired.Parent(id) == dead {
			t.Fatalf("node %v still routes through the dead node", id)
		}
		// Walk the repaired route to the sink.
		hops := 0
		for v := id; v != packet.SinkID; v = repaired.Parent(v) {
			if v == dead {
				t.Fatalf("route from %v passes the dead node", id)
			}
			if hops++; hops > repaired.NumNodes() {
				t.Fatalf("route from %v does not terminate", id)
			}
		}
		if repaired.Depth(id) != hops {
			t.Fatalf("node %v: depth %d but route has %d hops", id, repaired.Depth(id), hops)
		}
	}
}

func TestRerouteLinkDownRehomesSubtree(t *testing.T) {
	nw, err := NewGrid(GridConfig{Width: 4, Height: 4, Spacing: 1, RadioRange: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	// Cut one node's link to its parent: the node must pick another
	// minimum-depth neighbor (the grid's diagonal range guarantees one).
	child := nw.DeepestNode()
	parent := nw.Parent(child)
	cut := func(a, b packet.NodeID) bool {
		return (a == child && b == parent) || (a == parent && b == child)
	}
	repaired := nw.Reroute(nil, cut)
	if !repaired.HasRoute(child) {
		t.Fatal("child orphaned by one cut link in a dense grid")
	}
	if repaired.Parent(child) == parent {
		t.Fatal("child still routes over the cut link")
	}
	if repaired.Depth(child) != nw.Depth(child) {
		t.Fatalf("depth changed %d -> %d despite alternate equal-depth parents",
			nw.Depth(child), repaired.Depth(child))
	}
}

func TestRerouteOrphansDisconnectedSubtree(t *testing.T) {
	// On a chain the only route runs through every node: killing node 2
	// orphans everything deeper.
	nw, err := NewChain(5)
	if err != nil {
		t.Fatal(err)
	}
	repaired := nw.Reroute(func(id packet.NodeID) bool { return id == 2 }, nil)
	if !repaired.HasRoute(1) {
		t.Fatal("node 1 should survive")
	}
	for id := packet.NodeID(2); id <= 5; id++ {
		if repaired.HasRoute(id) {
			t.Fatalf("node %v should be orphaned", id)
		}
		if repaired.Depth(id) != -1 {
			t.Fatalf("orphan %v has depth %d, want -1", id, repaired.Depth(id))
		}
	}
	// Repairing with the fault cleared restores the full tree.
	restored := repaired.Reroute(nil, nil)
	for id := packet.NodeID(1); id <= 5; id++ {
		if !restored.HasRoute(id) || restored.Depth(id) != nw.Depth(id) {
			t.Fatalf("node %v not restored: depth %d want %d", id, restored.Depth(id), nw.Depth(id))
		}
	}
}

func TestRerouteDeterministic(t *testing.T) {
	nw, err := NewRandomGeometric(GeometricConfig{Nodes: 80, Side: 6, RadioRange: 1.5, Seed: 4, SinkAtCorner: true})
	if err != nil {
		t.Fatal(err)
	}
	dead := nw.DeepestNode()
	down := func(id packet.NodeID) bool { return id == nw.Parent(dead) }
	a, b := nw.Reroute(down, nil), nw.Reroute(down, nil)
	for _, id := range nw.Nodes() {
		if a.Parent(id) != b.Parent(id) || a.Depth(id) != b.Depth(id) {
			t.Fatalf("Reroute not deterministic at node %v", id)
		}
	}
}

// keyed2kField is the repository benchmark's keyed-2k field: 2,048 nodes
// at the connectivity threshold, topology seed 17, sink at the corner.
func keyed2kField(t *testing.T) *Network {
	t.Helper()
	const nodes = 2048
	nw, err := NewRandomGeometric(GeometricConfig{
		Nodes: nodes, Side: math.Sqrt(nodes * math.Pi / (math.Log(nodes) + 5)), RadioRange: 1,
		Seed: 17, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestNetworkFootprint pins the flat layout on the keyed-2k field: every
// field of a Network is one slice of scalars (no per-node slice), and
// each is allocated to exactly its CSR size — n+1 positions, parents and
// depths, n+2 offsets, and one ID per link end.
func TestNetworkFootprint(t *testing.T) {
	nw := keyed2kField(t)
	typ := reflect.TypeOf(*nw)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Slice || f.Type.Elem().Kind() == reflect.Slice {
			t.Errorf("Network.%s is %v, want a flat slice", f.Name, f.Type)
		}
	}
	n := nw.NumNodes()
	links := int(nw.nbrOff[n+1])
	bytes := 0
	for _, c := range []struct {
		name      string
		len, cap  int
		want      int
		elemBytes int
	}{
		{"pos", len(nw.pos), cap(nw.pos), n + 1, 16},
		{"nbrOff", len(nw.nbrOff), cap(nw.nbrOff), n + 2, 4},
		{"nbrs", len(nw.nbrs), cap(nw.nbrs), links, 2},
		{"parent", len(nw.parent), cap(nw.parent), n + 1, 2},
		{"depth", len(nw.depth), cap(nw.depth), n + 1, 4},
	} {
		if c.len != c.want || c.cap != c.want {
			t.Errorf("%s: len %d cap %d, want %d", c.name, c.len, c.cap, c.want)
		}
		bytes += c.cap * c.elemBytes
	}
	degrees := 0
	for i := 0; i <= n; i++ {
		degrees += nw.Degree(packet.NodeID(i))
	}
	if degrees != links {
		t.Errorf("degrees sum to %d, offsets end at %d", degrees, links)
	}
	t.Logf("%d nodes, %d link ends: %d bytes", n, links, bytes)
}

// TestDerivedNetworksShareRadioGraph checks that Rewire and Reroute reuse
// the receiver's positions and CSR arrays: Rewire owns only its parents
// (depths are unchanged), Reroute only its parents and depths. Rewire
// makes no per-node allocation: on churn-120's field and on keyed-2k's,
// a call allocates the Network, its parents and the RNG source, and no
// more.
func TestDerivedNetworksShareRadioGraph(t *testing.T) {
	churn, err := NewRandomGeometric(GeometricConfig{Nodes: 120, Side: 7, RadioRange: 1.5, Seed: 31, SinkAtCorner: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []*Network{churn, keyed2kField(t)} {
		rewired := base.Rewire(5)
		rerouted := base.Reroute(func(id packet.NodeID) bool { return id == base.DeepestNode() }, nil)
		for _, c := range []struct {
			name   string
			shared bool
			same   bool
		}{
			{"Rewire pos", true, &rewired.pos[0] == &base.pos[0]},
			{"Rewire nbrOff", true, &rewired.nbrOff[0] == &base.nbrOff[0]},
			{"Rewire nbrs", true, &rewired.nbrs[0] == &base.nbrs[0]},
			{"Rewire depth", true, &rewired.depth[0] == &base.depth[0]},
			{"Rewire parent", false, &rewired.parent[0] == &base.parent[0]},
			{"Reroute pos", true, &rerouted.pos[0] == &base.pos[0]},
			{"Reroute nbrOff", true, &rerouted.nbrOff[0] == &base.nbrOff[0]},
			{"Reroute nbrs", true, &rerouted.nbrs[0] == &base.nbrs[0]},
			{"Reroute depth", false, &rerouted.depth[0] == &base.depth[0]},
			{"Reroute parent", false, &rerouted.parent[0] == &base.parent[0]},
		} {
			if c.same != c.shared {
				t.Errorf("%d nodes: %s shared = %v, want %v", base.NumNodes(), c.name, c.same, c.shared)
			}
		}
		// IDs outside 1..n pin nothing.
		if !slices.Equal(base.Rewire(5, 0, packet.NodeID(base.NumNodes()+1)).parent, rewired.parent) {
			t.Errorf("%d nodes: out-of-range pins changed the rewired tree", base.NumNodes())
		}
		if allocs := testing.AllocsPerRun(20, func() { base.Rewire(5, base.DeepestNode()) }); allocs > 3 {
			t.Errorf("%d nodes: Rewire allocates %g times a call, want at most 3", base.NumNodes(), allocs)
		}
	}
}

// TestFieldTooLargeForNodeIDs checks that a field with more sensor nodes
// than 16-bit NodeIDs is refused rather than built with wrapped IDs, and
// that the largest one that fits is built whole.
func TestFieldTooLargeForNodeIDs(t *testing.T) {
	if _, err := NewChain(math.MaxUint16 + 1); err == nil || !strings.Contains(err.Error(), "node IDs") {
		t.Fatalf("NewChain(%d): err = %v, want the node-ID limit", math.MaxUint16+1, err)
	}
	nw, err := NewChain(math.MaxUint16)
	if err != nil {
		t.Fatal(err)
	}
	last := packet.NodeID(math.MaxUint16)
	if nw.Depth(last) != math.MaxUint16 || !slices.Equal(nw.Neighbors(last), []packet.NodeID{last - 1}) {
		t.Fatalf("deepest node: depth %d, neighbors %v", nw.Depth(last), nw.Neighbors(last))
	}
}

// TestPlacementRetriesOnlyDisconnection: the random constructors redraw a
// placement only when it is disconnected. A field too large for the
// NodeIDs fails on the first draw with the node-ID limit, as NewChain's
// does, instead of drawing every attempt and blaming connectivity.
func TestPlacementRetriesOnlyDisconnection(t *testing.T) {
	const nodes = 70000
	_, err := NewRandomGeometric(GeometricConfig{Nodes: nodes, Side: 10, RadioRange: 1, Seed: 1, MaxAttempts: 3})
	if err == nil || !strings.Contains(err.Error(), "node IDs") {
		t.Fatalf("NewRandomGeometric(%d nodes): err = %v, want the node-ID limit", nodes, err)
	}
	_, err = NewWaypoint(WaypointConfig{Nodes: nodes, Side: 10, RadioRange: 1, Seed: 1, MaxAttempts: 3})
	if err == nil || !strings.Contains(err.Error(), "node IDs") {
		t.Fatalf("NewWaypoint(%d nodes): err = %v, want the node-ID limit", nodes, err)
	}
	// A disconnected draw still retries until the attempts run out.
	_, err = NewRandomGeometric(GeometricConfig{Nodes: 20, Side: 100, RadioRange: 1, Seed: 1, MaxAttempts: 3})
	if err == nil || !strings.Contains(err.Error(), "no connected placement") {
		t.Fatalf("sparse field: err = %v, want no connected placement", err)
	}
}
