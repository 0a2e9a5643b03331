package sink

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pnm/internal/mac"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// The tests in this file pin TopologyResolver's path hints: they reorder
// the search without narrowing it, they cost a bounded amount when
// poisoned, they never cross an epoch, their table stays capped, and a
// hinted resolution allocates nothing.

// forgetful runs a TopologyResolver with its hint table dropped before
// every call: the plain subtree BFS, for comparison.
type forgetful struct{ r *TopologyResolver }

// Resolve implements Resolver.
func (f forgetful) Resolve(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool) {
	f.r.hints = nil
	f.r.Resolve(report, anon, prev, havePrev, epoch, yield)
}

// probeLog records the probes each Resolve call of a TopologyResolver
// spends.
type probeLog struct {
	inner   Resolver
	probes  *obs.Counter
	perCall []uint64
}

// newProbeLog instruments r and wraps it; inner is what gets called
// (r itself, or a decorator over it).
func newProbeLog(r *TopologyResolver, inner Resolver) *probeLog {
	reg := obs.New()
	r.Instrument(reg)
	return &probeLog{inner: inner, probes: reg.Counter("sink.resolver.probes")}
}

// Resolve implements Resolver.
func (p *probeLog) Resolve(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool) {
	before := p.probes.Value()
	p.inner.Resolve(report, anon, prev, havePrev, epoch, yield)
	p.perCall = append(p.perCall, p.probes.Value()-before)
}

// routeOf returns src's forwarding route, src first.
func routeOf(topo *topology.Network, src packet.NodeID) []packet.NodeID {
	return append([]packet.NodeID{src}, topo.Forwarders(src)...)
}

// markRoute builds an honest anonymous chain along route: each hop marks
// with probability p, carrying the ID anonFn gives it.
func markRoute(rng *rand.Rand, rep packet.Report, route []packet.NodeID, p float64, anonFn anonIDFunc) packet.Message {
	msg := packet.Message{Report: rep}
	for _, id := range route {
		if rng.Float64() < p {
			msg = appendAnonMark(msg, testKS.Key(id), anonFn(testKS.Key(id), rep, id))
		}
	}
	return msg
}

// TestHintedResolverMatchesExhaustiveProperty interleaves packets from
// several sources, two per Location, through one long-lived hinted
// resolver. Every packet must verify exactly as under the exhaustive
// resolver, and every mark's full candidate stream must hold the same
// members as the unhinted BFS's, hashing each node once. Each run forces a collision on a hinted
// path: a node on one source's route takes the anonymous ID of a deeper
// node on its Location partner's route, so the hint probes meet the
// impostor before the BFS reaches the true marker. Half the runs also
// truncate anonymous IDs to six bits.
func TestHintedResolverMatchesExhaustiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var hits uint64
	f := func(seed int64, trunc bool) bool {
		runRng := rand.New(rand.NewSource(seed))
		topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
			Nodes: 60, Side: 5, RadioRange: 1.4, Seed: seed, SinkAtCorner: true,
		})
		if err != nil {
			return false
		}
		nodes := topo.Nodes()
		srcs := make([]packet.NodeID, 4)
		for i := range srcs {
			srcs[i] = nodes[runRng.Intn(len(nodes))]
		}
		// srcs[0] and srcs[2] share Location 0: plant the impostor on
		// srcs[0]'s route and its victim deeper on srcs[2]'s.
		onA := make(map[packet.NodeID]bool)
		for _, id := range routeOf(topo, srcs[0]) {
			onA[id] = true
		}
		var victim, impostor packet.NodeID
		for _, v := range routeOf(topo, srcs[2]) {
			if onA[v] {
				continue
			}
			for _, a := range routeOf(topo, srcs[0]) {
				if topo.Depth(a) < topo.Depth(v) {
					victim, impostor = v, a
				}
			}
			if victim != 0 {
				break
			}
		}
		anonFn := func(k mac.Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
			if id == impostor && victim != 0 {
				k, id = testKS.Key(victim), victim
			}
			a := mac.AnonID(k, report, id)
			if trunc {
				return [packet.AnonIDLen]byte{a[0] & 0x3F}
			}
			return a
		}

		exh := NewExhaustiveResolver(testKS, nodes)
		exh.anonID = anonFn
		hinted := NewTopologyResolver(testKS, topo)
		hinted.anonID = anonFn
		reg := obs.New()
		hinted.Instrument(reg)
		plain := NewTopologyResolver(testKS, topo)
		plain.anonID = anonFn
		plainReg := obs.New()
		plain.Instrument(plainReg)
		hintProbes, plainProbes := reg.Counter("sink.resolver.probes"), plainReg.Counter("sink.resolver.probes")
		vExh := &NestedVerifier{keys: testKS, numNodes: topo.NumNodes(), resolver: exh}
		vHint := &NestedVerifier{keys: testKS, numNodes: topo.NumNodes(), resolver: hinted}

		for i := 0; i < 24; i++ {
			s := runRng.Intn(len(srcs))
			rep := packet.Report{Event: runRng.Uint32(), Location: uint32(s % 2), Seq: uint32(i)}
			msg := markRoute(runRng, rep, routeOf(topo, srcs[s]), 0.5, anonFn)
			want := vExh.Verify(msg, 0)
			if want.Stopped || len(want.Chain) != len(msg.Marks) {
				return false // the exhaustive baseline must accept honest chains
			}
			if got := vHint.Verify(msg, 0); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d packet %d: hinted %+v, exhaustive %+v", seed, i, got, want)
				return false
			}
			// Every mark's candidate stream, against the hints just learned.
			prev, havePrev := packet.SinkID, false
			for k := len(msg.Marks) - 1; k >= 0; k-- {
				anon := msg.Marks[k].AnonID
				h0, p0 := hintProbes.Value(), plainProbes.Value()
				a := ResolveAll(hinted, rep, anon, prev, havePrev, 0)
				b := ResolveAll(plain, rep, anon, prev, havePrev, 0)
				if !sameMembers(a, b) {
					t.Logf("seed %d packet %d mark %d: hinted candidates %v, BFS %v", seed, i, k, a, b)
					return false
				}
				// A full sweep hashes each subtree node exactly once.
				if h, p := hintProbes.Value()-h0, plainProbes.Value()-p0; h != p {
					t.Logf("seed %d packet %d mark %d: full sweep took %d probes hinted, %d plain", seed, i, k, h, p)
					return false
				}
				prev, havePrev = want.Chain[k], true
			}
		}
		hits += reg.Counter("sink.resolver.hint_hits").Value()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("no Resolve call ever hit a hint: the property never exercised the hinted path")
	}
}

// TestHintPoisoningCostBounded has a spoofer share an honest source's
// Location from another branch, alternating packets, so each overwrites
// the other's hint. Results must match the unhinted resolver's, and no
// Resolve call may cost more than the unhinted BFS plus one path length.
func TestHintPoisoningCostBounded(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 120, Side: 7, RadioRange: 1.4, Seed: 5, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	honest := topo.DeepestNode()
	onHonest := make(map[packet.NodeID]bool)
	for _, id := range routeOf(topo, honest) {
		onHonest[id] = true
	}
	// The spoofer: the deepest node whose route shares only the sink with
	// the honest one.
	var spoofer packet.NodeID
	for _, id := range topo.Nodes() {
		disjoint := true
		for _, hop := range routeOf(topo, id) {
			disjoint = disjoint && !onHonest[hop]
		}
		if disjoint && (spoofer == 0 || topo.Depth(id) > topo.Depth(spoofer)) {
			spoofer = id
		}
	}
	if spoofer == 0 || topo.Depth(spoofer) < 3 {
		t.Fatal("fixture drift: no deep spoofer on a disjoint branch")
	}
	maxPath := uint64(topo.Depth(honest))

	hintedR := NewTopologyResolver(testKS, topo)
	hinted := newProbeLog(hintedR, hintedR)
	plainR := NewTopologyResolver(testKS, topo)
	plain := newProbeLog(plainR, forgetful{plainR})
	vHint := &NestedVerifier{keys: testKS, numNodes: topo.NumNodes(), resolver: hinted}
	vPlain := &NestedVerifier{keys: testKS, numNodes: topo.NumNodes(), resolver: plain}

	rng := rand.New(rand.NewSource(9))
	realIDs := func(k mac.Key, rep packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
		return mac.AnonID(k, rep, id)
	}
	for i := 0; i < 60; i++ {
		src := honest
		if i%2 == 1 {
			src = spoofer
		}
		rep := packet.Report{Event: uint32(i), Location: 77, Seq: uint32(i)}
		msg := markRoute(rng, rep, routeOf(topo, src), 0.5, realIDs)
		got, want := vHint.Verify(msg, 0), vPlain.Verify(msg, 0)
		if !reflect.DeepEqual(got, want) || want.Stopped {
			t.Fatalf("packet %d: hinted %+v, unhinted %+v", i, got, want)
		}
	}
	if len(hinted.perCall) != len(plain.perCall) || len(plain.perCall) == 0 {
		t.Fatalf("call counts differ: hinted %d, unhinted %d", len(hinted.perCall), len(plain.perCall))
	}
	poisoned := 0
	for i, h := range hinted.perCall {
		u := plain.perCall[i]
		if h > u+maxPath {
			t.Fatalf("call %d: %d probes hinted, bound is %d unhinted + %d path", i, h, u, maxPath)
		}
		if h > u {
			poisoned++
		}
	}
	if poisoned == 0 {
		t.Fatal("no call paid for a poisoned hint: the spoofer never displaced the honest route")
	}
}

// TestHintNotFollowedAcrossEpochs learns a hint in epoch 0, then resolves
// the same mark in epoch 1 — the same tree re-published, so the stale
// route would still be valid and only the epoch key can keep it out. The
// epoch-1 call must probe in plain BFS order and count a miss.
func TestHintNotFollowedAcrossEpochs(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 60, Side: 5, RadioRange: 1.4, Seed: 3, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	set := topology.NewEpochSet(topo)
	e1 := set.Advance(topo).Version

	var order []packet.NodeID
	recording := func(k mac.Key, rep packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
		order = append(order, id)
		return mac.AnonID(k, rep, id)
	}
	r := NewTopologyResolverEpochs(testKS, set)
	r.anonID = recording
	reg := obs.New()
	r.Instrument(reg)
	hits, misses := reg.Counter("sink.resolver.hint_hits"), reg.Counter("sink.resolver.hint_misses")

	deep := topo.DeepestNode()
	rep := testReport(500)
	anon := mac.AnonID(testKS.Key(deep), rep, deep)
	accept := func(id packet.NodeID) bool { return id == deep }
	probeOrder := func(res Resolver, epoch topology.EpochVersion) []packet.NodeID {
		order = order[:0]
		res.Resolve(rep, anon, packet.SinkID, false, epoch, accept)
		return append([]packet.NodeID(nil), order...)
	}

	bfs := probeOrder(forgetful{r}, 0) // learns deep as epoch 0's tip
	if got := probeOrder(r, 0); reflect.DeepEqual(got, bfs) || hits.Value() != 1 {
		t.Fatalf("epoch 0: hint not followed (hits %d, order %v)", hits.Value(), got)
	}
	hitsBefore, missesBefore := hits.Value(), misses.Value()
	bfs1 := probeOrder(forgetful{r}, e1)
	r.hints[rep.Location] = pathHint{epoch: 0, tip: deep} // forgetful dropped it
	if got := probeOrder(r, e1); !reflect.DeepEqual(got, bfs1) {
		t.Fatalf("epoch %d followed the epoch-0 hint: order %v, BFS %v", e1, got, bfs1)
	}
	if hits.Value() != hitsBefore || misses.Value() != missesBefore+2 {
		t.Fatalf("epoch %d: hits %d→%d, misses %d→%d; want no hit and two misses",
			e1, hitsBefore, hits.Value(), missesBefore, misses.Value())
	}
}

// TestHintTableBoundedUnderLocationFlood feeds ten times the node count
// of distinct Locations: the table never exceeds its cap, the node count.
func TestHintTableBoundedUnderLocationFlood(t *testing.T) {
	topo := equivGrid(t)
	r := NewTopologyResolver(testKS, topo)
	if r.hintCap != topo.NumNodes() {
		t.Fatalf("hint cap = %d, want the node count %d", r.hintCap, topo.NumNodes())
	}
	deep := topo.DeepestNode()
	accept := func(id packet.NodeID) bool { return id == deep }
	learned := 0
	for loc := 0; loc < 10*topo.NumNodes(); loc++ {
		rep := packet.Report{Event: 1, Location: uint32(loc), Seq: 1}
		r.Resolve(rep, mac.AnonID(testKS.Key(deep), rep, deep), packet.SinkID, false, 0, accept)
		if len(r.hints) > r.hintCap {
			t.Fatalf("after %d Locations the table holds %d hints, cap %d", loc+1, len(r.hints), r.hintCap)
		}
		if _, ok := r.hints[rep.Location]; ok {
			learned++
		}
	}
	if learned != 10*topo.NumNodes() {
		t.Fatalf("only %d of %d Locations learned a hint", learned, 10*topo.NumNodes())
	}
}

// TestTopologyResolverHintedZeroAlloc pins the // pnmlint:noalloc
// contract on Resolve dynamically: once a hint is learned and the buffers
// have grown, a hinted resolution allocates nothing.
func TestTopologyResolverHintedZeroAlloc(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 60, Side: 5, RadioRange: 1.4, Seed: 3, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewTopologyResolver(testKS, topo)
	reg := obs.New()
	r.Instrument(reg)
	deep := topo.DeepestNode()
	rep := testReport(600)
	anon := mac.AnonID(testKS.Key(deep), rep, deep)
	accept := func(id packet.NodeID) bool { return id == deep }
	// Warm up: the first call learns the hint, the second grows the path
	// buffer.
	r.Resolve(rep, anon, packet.SinkID, false, 0, accept)
	r.Resolve(rep, anon, packet.SinkID, false, 0, accept)
	if allocs := testing.AllocsPerRun(200, func() {
		r.Resolve(rep, anon, packet.SinkID, false, 0, accept)
	}); allocs != 0 {
		t.Errorf("hinted Resolve allocates %.1f times per call, want 0", allocs)
	}
	if hits := reg.Counter("sink.resolver.hint_hits").Value(); hits < 200 {
		t.Errorf("hint hits = %d, want every measured call to hit", hits)
	}
}
