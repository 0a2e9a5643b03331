package sink

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// The tests in this file pin the tentpole invariant of the sink hot path:
// the §7 O(d) TopologyResolver must be observationally equivalent to the
// exhaustive base method, including when truncated anonymous IDs collide.
// The pre-fix TopologyResolver returned only the first BFS depth level
// with any anonymous-ID match, so a collision at a shallower depth
// shadowed the true marker and an honest chain was wrongly reported
// Stopped — the shallower-than-marker and sibling-subtree fixtures below
// fail against that implementation.

// appendAnonMark appends an anonymous nested mark carrying an explicit
// anonymous ID, computing the MAC exactly as marking.PNM does. Building
// marks by hand lets a test pick anon IDs that collide.
func appendAnonMark(msg packet.Message, key mac.Key, anon [packet.AnonIDLen]byte) packet.Message {
	out := msg.Clone()
	out.Marks = append(out.Marks, packet.Mark{
		Anonymous: true,
		AnonID:    anon,
		MAC:       marking.NestedMACAnon(key, msg, len(msg.Marks), anon),
	})
	return out
}

// collideAnonID returns an anonIDFunc under which impostor's anonymous ID
// equals victim's real one for every report — an exact manufactured
// truncation collision; all other nodes keep their real IDs.
func collideAnonID(victim, impostor packet.NodeID) anonIDFunc {
	return func(k mac.Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
		if id == impostor {
			return mac.AnonID(testKS.Key(victim), report, victim)
		}
		return mac.AnonID(k, report, id)
	}
}

// verifyWith runs NestedVerifier over msg with the given resolver.
func verifyWith(t *testing.T, topo *topology.Network, r Resolver, msg packet.Message) Result {
	t.Helper()
	v := &NestedVerifier{keys: testKS, numNodes: topo.NumNodes(), resolver: r}
	return v.Verify(msg, 0)
}

// equivGrid builds the 5x5 grid all collision fixtures run on.
func equivGrid(t *testing.T) *topology.Network {
	t.Helper()
	topo, err := topology.NewGrid(topology.GridConfig{Width: 5, Height: 5, Spacing: 1, RadioRange: 1})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// childrenOf rebuilds the routing tree's downlink adjacency for fixture
// selection.
func childrenOf(topo *topology.Network) map[packet.NodeID][]packet.NodeID {
	children := make(map[packet.NodeID][]packet.NodeID)
	for _, id := range topo.Nodes() {
		p := topo.Parent(id)
		children[p] = append(children[p], id)
	}
	return children
}

// nodeAtDepth returns some node at the requested depth, excluding the
// given ones.
func nodeAtDepth(t *testing.T, topo *topology.Network, depth int, exclude ...packet.NodeID) packet.NodeID {
	t.Helper()
	for _, id := range topo.Nodes() {
		if topo.Depth(id) != depth {
			continue
		}
		skip := false
		for _, x := range exclude {
			if id == x {
				skip = true
			}
		}
		if !skip {
			return id
		}
	}
	t.Fatalf("no node at depth %d", depth)
	return 0
}

// TestTopologyResolverCollisionFixtures manufactures 4-byte anonymous-ID
// collisions at the three places a collision can sit relative to the true
// marker, and asserts both resolvers accept the honest chain and agree
// with each other in every case.
func TestTopologyResolverCollisionFixtures(t *testing.T) {
	topo := equivGrid(t)
	children := childrenOf(topo)

	// The honest markers: a deep node and its parent's parent — a real
	// routing sub-path markers could produce.
	deep := topo.DeepestNode()

	// For the sibling-subtree case, find a hint node with at least two
	// subtree branches, a marker two levels up one branch, and an
	// impostor one level up another branch.
	var hint, sibVictim, sibImpostor packet.NodeID
	for _, prev := range topo.Nodes() {
		kids := children[prev]
		if len(kids) < 2 {
			continue
		}
		for _, c1 := range kids {
			if len(children[c1]) == 0 {
				continue
			}
			for _, c2 := range kids {
				if c2 != c1 {
					hint, sibVictim, sibImpostor = prev, children[c1][0], c2
					break
				}
			}
			if hint != 0 {
				break
			}
		}
		if hint != 0 {
			break
		}
	}
	if hint == 0 {
		t.Fatal("grid yielded no branch point for the sibling-subtree fixture")
	}

	fixtures := []struct {
		name     string
		victim   packet.NodeID // true marker whose anon ID is collided with
		impostor packet.NodeID // node forced to share the victim's anon ID
		markers  []packet.NodeID
	}{
		{
			// The impostor sits at a shallower BFS depth than the marker:
			// the pre-fix resolver returned the impostor's level and never
			// reached the marker.
			name:     "shallower-than-marker",
			victim:   deep,
			impostor: nodeAtDepth(t, topo, 1, deep),
			markers:  []packet.NodeID{deep},
		},
		{
			// Impostor at the marker's own depth: both stream in the same
			// BFS level and the MAC disambiguates (worked pre-fix too —
			// pinned so the fix never regresses it). The deepest grid node
			// is a unique corner, so this fixture uses one level up, where
			// the grid has two nodes.
			name:     "same-depth",
			victim:   nodeAtDepth(t, topo, topo.Depth(deep)-1),
			impostor: nodeAtDepth(t, topo, topo.Depth(deep)-1, nodeAtDepth(t, topo, topo.Depth(deep)-1)),
			markers:  []packet.NodeID{nodeAtDepth(t, topo, topo.Depth(deep)-1)},
		},
		{
			// Hinted search: the marker is two levels above the verified
			// hint, the impostor one level up a sibling branch — the
			// impostor's level is exhausted before the marker's.
			name:     "sibling-subtree",
			victim:   sibVictim,
			impostor: sibImpostor,
			markers:  []packet.NodeID{sibVictim, hint},
		},
	}

	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			if d := topo.Depth(fx.impostor); fx.name == "shallower-than-marker" && d >= topo.Depth(fx.victim) {
				t.Fatalf("fixture invalid: impostor depth %d not shallower than victim depth %d", d, topo.Depth(fx.victim))
			}
			anonFn := collideAnonID(fx.victim, fx.impostor)

			// Build the honest packet: markers upstream-first, each mark
			// carrying the anon ID the resolver will compute for it.
			rep := testReport(100)
			msg := packet.Message{Report: rep}
			for _, id := range fx.markers {
				msg = appendAnonMark(msg, testKS.Key(id), anonFn(testKS.Key(id), rep, id))
			}

			exh := NewExhaustiveResolver(testKS, topo.Nodes())
			exh.anonID = anonFn
			topoR := NewTopologyResolver(testKS, topo)
			topoR.anonID = anonFn

			want := verifyWith(t, topo, exh, msg)
			if want.Stopped || len(want.Chain) != len(fx.markers) {
				t.Fatalf("exhaustive baseline rejected the honest chain: %+v", want)
			}
			got := verifyWith(t, topo, topoR, msg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("topology resolver diverged from exhaustive baseline:\n got %+v\nwant %+v", got, want)
			}
			for i, id := range fx.markers {
				if got.Chain[i] != id {
					t.Fatalf("chain = %v, want %v", got.Chain, fx.markers)
				}
			}
		})
	}
}

// TestResolverEquivalenceProperty drives randomized geometric topologies
// and honest PNM chains through both resolvers and asserts identical
// results — the §7 optimization must be a pure speedup.
func TestResolverEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	f := func(seed int64, pRaw uint8) bool {
		runRng := rand.New(rand.NewSource(seed))
		topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
			Nodes: 60, Side: 5, RadioRange: 1.4, Seed: seed, SinkAtCorner: true,
		})
		if err != nil {
			return false
		}
		p := 0.3 + float64(pRaw%8)/10 // 0.3 .. 1.0
		scheme := marking.PNM{P: p}
		src := topo.DeepestNode()
		msg := packet.Message{Report: packet.Report{Event: runRng.Uint32(), Seq: runRng.Uint32()}}
		msg = scheme.Mark(src, testKS.Key(src), msg, runRng)
		for _, hop := range topo.Forwarders(src) {
			msg = scheme.Mark(hop, testKS.Key(hop), msg, runRng)
		}

		exh := NewExhaustiveResolver(testKS, topo.Nodes())
		topoR := NewTopologyResolver(testKS, topo)
		vExh := &NestedVerifier{keys: testKS, numNodes: topo.NumNodes(), resolver: exh}
		vTopo := &NestedVerifier{keys: testKS, numNodes: topo.NumNodes(), resolver: topoR}
		a := vExh.Verify(msg, 0)
		b := vTopo.Verify(msg, 0)
		return !a.Stopped && len(a.Chain) == len(msg.Marks) && reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestResolverEquivalenceUnderForcedCollisionsProperty repeats the
// equivalence check with anonymous IDs truncated to six bits, so every
// packet's marks collide with several other nodes — the regime the
// collision fix exists for. Chains are built by hand because the marks
// must carry the truncated IDs.
func TestResolverEquivalenceUnderForcedCollisionsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	// Six-bit anonymous IDs: with 60 nodes, expected ~1 collision per ID.
	trunc := func(k mac.Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
		a := mac.AnonID(k, report, id)
		return [packet.AnonIDLen]byte{a[0] & 0x3F, 0, 0, 0}
	}
	f := func(seed int64, every uint8) bool {
		topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
			Nodes: 60, Side: 5, RadioRange: 1.4, Seed: seed, SinkAtCorner: true,
		})
		if err != nil {
			return false
		}
		src := topo.DeepestNode()
		stride := int(every%3) + 1 // mark every 1st/2nd/3rd hop
		rep := packet.Report{Event: uint32(seed), Seq: uint32(every)}
		msg := packet.Message{Report: rep}
		var markers []packet.NodeID
		path := append([]packet.NodeID{src}, topo.Forwarders(src)...)
		for i, hop := range path {
			if i%stride == 0 {
				msg = appendAnonMark(msg, testKS.Key(hop), trunc(testKS.Key(hop), rep, hop))
				markers = append(markers, hop)
			}
		}

		exh := NewExhaustiveResolver(testKS, topo.Nodes())
		exh.anonID = trunc
		topoR := NewTopologyResolver(testKS, topo)
		topoR.anonID = trunc
		vExh := &NestedVerifier{keys: testKS, numNodes: topo.NumNodes(), resolver: exh}
		vTopo := &NestedVerifier{keys: testKS, numNodes: topo.NumNodes(), resolver: topoR}
		a := vExh.Verify(msg, 0)
		b := vTopo.Verify(msg, 0)
		if a.Stopped || len(a.Chain) != len(markers) {
			return false // the exhaustive baseline must accept honest chains
		}
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestTopologyResolverStreamsAcrossDepths pins the streaming contract
// directly at the Resolver interface: every anonymous-ID match in the
// subtree is yielded, shallower depths first, not just the first matching
// level.
func TestTopologyResolverStreamsAcrossDepths(t *testing.T) {
	topo, err := topology.NewChain(6)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 2 and 5 share an anonymous ID; node 5 is the true marker.
	anonFn := collideAnonID(5, 2)
	r := NewTopologyResolver(testKS, topo)
	r.anonID = anonFn
	rep := testReport(110)
	anon := mac.AnonID(testKS.Key(5), rep, 5)

	got := ResolveAll(r, rep, anon, 0, false, 0)
	want := []packet.NodeID{2, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("candidate stream = %v, want %v", got, want)
	}

	// Early acceptance stops the stream — the §7 O(d) fast path.
	var first []packet.NodeID
	r.Resolve(rep, anon, 0, false, 0, func(id packet.NodeID) bool {
		first = append(first, id)
		return true
	})
	if len(first) != 1 || first[0] != 2 {
		t.Fatalf("accepting stream = %v, want just [V2]", first)
	}
}

// TestCollisionFixtureWouldFailPreFix documents the bug shape: a resolver
// that cuts the stream at the first matching depth (the pre-fix behavior,
// reconstructed here) makes the verifier reject the honest chain that the
// fixed resolver accepts.
func TestCollisionFixtureWouldFailPreFix(t *testing.T) {
	topo := equivGrid(t)
	deep := topo.DeepestNode()
	impostor := nodeAtDepth(t, topo, 1, deep)
	anonFn := collideAnonID(deep, impostor)

	rep := testReport(120)
	msg := packet.Message{Report: rep}
	msg = appendAnonMark(msg, testKS.Key(deep), anonFn(testKS.Key(deep), rep, deep))

	fixed := NewTopologyResolver(testKS, topo)
	fixed.anonID = anonFn
	if res := verifyWith(t, topo, fixed, msg); res.Stopped || len(res.Chain) != 1 || res.Chain[0] != deep {
		t.Fatalf("fixed resolver rejected the honest chain: %+v", res)
	}

	preFix := &firstDepthResolver{inner: fixed, topo: topo}
	if res := verifyWith(t, topo, preFix, msg); !res.Stopped {
		t.Fatalf("pre-fix behavior unexpectedly accepted the chain: %+v", res)
	}
}

// firstDepthResolver replays the pre-fix semantics on top of the fixed
// resolver: it forwards only candidates from the first depth level that
// produced any match.
type firstDepthResolver struct {
	inner *TopologyResolver
	topo  *topology.Network
}

// Resolve implements Resolver with the pre-fix early cut.
func (r *firstDepthResolver) Resolve(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool) {
	matchDepth := -1
	r.inner.Resolve(report, anon, prev, havePrev, epoch, func(id packet.NodeID) bool {
		d := r.topo.Depth(id)
		if matchDepth == -1 {
			matchDepth = d
		}
		if d != matchDepth {
			return true // pre-fix: deeper levels were never searched
		}
		return yield(id)
	})
}

// TestResolverEquivalenceExhaustsBothOrders cross-checks candidate sets of
// the two resolvers over a mid-size random topology for a spread of anon
// IDs (real and colliding): same members, possibly different order.
func TestResolverEquivalenceExhaustsBothOrders(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 50, Side: 5, RadioRange: 1.5, Seed: 77, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trunc := func(k mac.Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
		a := mac.AnonID(k, report, id)
		return [packet.AnonIDLen]byte{a[0] & 0xF, 0, 0, 0}
	}
	exh := NewExhaustiveResolver(testKS, topo.Nodes())
	exh.anonID = trunc
	topoR := NewTopologyResolver(testKS, topo)
	topoR.anonID = trunc

	rep := testReport(130)
	for _, id := range topo.Nodes() {
		anon := trunc(testKS.Key(id), rep, id)
		a := ResolveAll(exh, rep, anon, 0, false, 0)
		b := ResolveAll(topoR, rep, anon, 0, false, 0)
		if !sameMembers(a, b) {
			t.Fatalf("candidate sets differ for %v: exhaustive %v, topology %v", id, a, b)
		}
		if !contains(b, id) {
			t.Fatalf("topology resolver missed the true node %v", id)
		}
	}
}

// sameMembers reports whether two candidate slices hold the same set.
func sameMembers(a, b []packet.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[packet.NodeID]int, len(a))
	for _, id := range a {
		seen[id]++
	}
	for _, id := range b {
		seen[id]--
		if seen[id] < 0 {
			return false
		}
	}
	return true
}
