package sink

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// The tests in this file pin TopologyResolver's path hints: they reorder
// the search without narrowing it, they cost a bounded amount when
// poisoned or spoofed, a learned one never crosses an epoch, their table
// stays capped, a seeded one resolves an honest source's first packet
// along its path, and a hinted resolution allocates nothing.

// newPlainBFS returns a TopologyResolver that never follows a hint: the
// plain subtree BFS, the reference the hint cost bounds are measured
// against.
func newPlainBFS(topo *topology.Network) *TopologyResolver {
	r := NewTopologyResolver(testKS, topo)
	r.unhinted = true
	return r
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

// honestPacket builds an honest chain along route with markRoute, at
// least one mark long, and returns it with its most upstream marker.
func honestPacket(t *testing.T, rng *rand.Rand, rep packet.Report, route []packet.NodeID, p float64) (packet.Message, packet.NodeID) {
	t.Helper()
	realIDs := func(k mac.Key, rep packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
		return mac.AnonID(k, rep, id)
	}
	for {
		msg := markRoute(rng, rep, route, p, realIDs)
		if len(msg.Marks) == 0 {
			continue
		}
		for _, id := range route {
			if mac.AnonID(testKS.Key(id), rep, id) == msg.Marks[0].AnonID {
				return msg, id
			}
		}
		t.Fatalf("no node on route %v carries the first mark", route)
	}
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
		vExh := nestedVerifier(t, topo.NumNodes(), exh)
		vHint := nestedVerifier(t, topo.NumNodes(), hinted)

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
				hinted.publish() // vHint shares hinted, so its calls tally until published
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

// TestHintPoisoningCostBounded runs two spoofing streams through a
// hinted resolver and the plain BFS. In the first, a spoofer shares an
// honest source's Location from another branch, alternating packets, so
// each overwrites the other's learned hint. In the second, every packet
// claims a fresh Location naming a routed node other than its source, so
// every packet follows a wrong seed. Results must match the plain BFS's,
// and no Resolve call may cost more than the plain BFS plus one path:
// the learned tip's depth, or the claimed node's depth.
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

	hintedR := NewTopologyResolver(testKS, topo)
	hinted := newProbeLog(hintedR, hintedR)
	plainR := newPlainBFS(topo)
	plain := newProbeLog(plainR, plainR)
	vHint := nestedVerifier(t, topo.NumNodes(), hinted)
	vPlain := nestedVerifier(t, topo.NumNodes(), plain)

	rng := rand.New(rand.NewSource(9))
	// send verifies one packet from src claiming loc on both resolvers
	// and checks each of its calls against the plain BFS plus maxPath.
	poisoned := 0
	send := func(stream string, i int, src packet.NodeID, loc uint32, maxPath uint64) {
		t.Helper()
		rep := packet.Report{Event: uint32(i), Location: loc, Seq: uint32(i)}
		msg, _ := honestPacket(t, rng, rep, routeOf(topo, src), 0.5)
		c0 := len(hinted.perCall)
		got, want := vHint.Verify(msg, 0), vPlain.Verify(msg, 0)
		if !reflect.DeepEqual(got, want) || want.Stopped {
			t.Fatalf("%s packet %d: hinted %+v, plain BFS %+v", stream, i, got, want)
		}
		if len(hinted.perCall) != len(plain.perCall) {
			t.Fatalf("%s packet %d: call counts differ: hinted %d, plain BFS %d", stream, i, len(hinted.perCall), len(plain.perCall))
		}
		for c := c0; c < len(hinted.perCall); c++ {
			h, u := hinted.perCall[c], plain.perCall[c]
			if h > u+maxPath {
				t.Fatalf("%s packet %d call %d: %d probes hinted, bound is %d plain BFS + %d path", stream, i, c, h, u, maxPath)
			}
			if h > u {
				poisoned++
			}
		}
	}

	// Location 120 names the field's last node, so the first packet
	// follows its seed; every later one follows the learned tip, which
	// is at most as deep as the honest source, the deepest node.
	const shared = 120
	maxPath := uint64(max(topo.Depth(honest), topo.Depth(shared)))
	for i := 0; i < 60; i++ {
		src := honest
		if i%2 == 1 {
			src = spoofer
		}
		send("shared Location", i, src, shared, maxPath)
	}
	if poisoned == 0 {
		t.Fatal("no call paid for a poisoned hint: the spoofer never displaced the honest route")
	}

	poisoned = 0
	nodes := topo.Nodes()
	locs := rng.Perm(len(nodes))
	for i, li := range locs {
		src, claimed := nodes[rng.Intn(len(nodes))], nodes[li]
		if src == claimed {
			continue
		}
		send("fresh spoofed Location", i, src, uint32(claimed), uint64(topo.Depth(claimed)))
	}
	if poisoned == 0 {
		t.Fatal("no call paid for a spoofed seed: the stream never misled the search")
	}
}

// TestHintNotFollowedAcrossEpochs learns a hint in epoch 0, then resolves
// the same mark in epoch 1 — the same tree re-published, so the stale
// route would still be valid and only the epoch key can keep it out. In
// epoch 0 the learned hint must lead the probe order; in epoch 1 the
// call must probe exactly as a resolver that learned nothing: along the
// seed when the Location names a routed node, else in plain BFS order.
func TestHintNotFollowedAcrossEpochs(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 60, Side: 5, RadioRange: 1.4, Seed: 3, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	set := pinnedEpochs(t, topo, topo)
	e1 := set.Current().Version

	var order []packet.NodeID
	recording := func(k mac.Key, rep packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
		order = append(order, id)
		return mac.AnonID(k, rep, id)
	}
	deep := topo.DeepestNode()
	deepPath := topo.Forwarders(deep)
	slices.Reverse(deepPath)
	deepPath = append(deepPath, deep) // shallowest first, below the sink
	// seeded: a routed node off deep's route, so its seed and the stale
	// hint probe different paths.
	var seeded packet.NodeID
	for _, id := range topo.Nodes() {
		if !slices.Contains(deepPath, id) {
			seeded = id
			break
		}
	}

	for _, tc := range []struct {
		name string
		loc  uint32
	}{
		{"seeded Location", uint32(seeded)},
		{"unrouted Location", uint32(topo.NumNodes() + 1)},
	} {
		r := NewTopologyResolverEpochs(testKS, set)
		r.anonID = recording
		reg := obs.New()
		r.Instrument(reg)
		hits, misses := reg.Counter("sink.resolver.hint_hits"), reg.Counter("sink.resolver.hint_misses")
		fresh := NewTopologyResolverEpochs(testKS, set)
		fresh.anonID = recording

		rep := packet.Report{Event: 500, Location: tc.loc, Seq: 1}
		anon := mac.AnonID(testKS.Key(deep), rep, deep)
		accept := func(id packet.NodeID) bool { return id == deep }
		probeOrder := func(res Resolver, epoch topology.EpochVersion) []packet.NodeID {
			order = order[:0]
			res.Resolve(rep, anon, packet.SinkID, false, epoch, accept)
			return append([]packet.NodeID(nil), order...)
		}

		r.learn(rep.Location, pathHint{epoch: 0, tip: deep})
		if got := probeOrder(r, 0); !reflect.DeepEqual(got, deepPath) || hits.Value() != 1 {
			t.Fatalf("%s, epoch 0: learned hint not followed (hits %d, order %v, path %v)", tc.name, hits.Value(), got, deepPath)
		}
		want := probeOrder(fresh, e1)
		if reflect.DeepEqual(want, deepPath) {
			t.Fatalf("%s: a resolver that learned nothing probes the stale path too; the test cannot see it followed", tc.name)
		}
		if got := probeOrder(r, e1); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, epoch %d: followed the epoch-0 hint: order %v, unlearned %v", tc.name, e1, got, want)
		}
		if hits.Value() != 1 || misses.Value() != 1 {
			t.Fatalf("%s, epoch %d: hits %d, misses %d; want the epoch-0 hit and one miss", tc.name, e1, hits.Value(), misses.Value())
		}
	}
}

// TestHintTableBoundedUnderLocationFlood feeds ten times the node count
// of distinct Locations: the table never exceeds its cap, the node
// count, and every Location either learns a hint or is served by its
// seed — only those that name a node whose root path holds the marker.
func TestHintTableBoundedUnderLocationFlood(t *testing.T) {
	topo := equivGrid(t)
	r := NewTopologyResolver(testKS, topo)
	if r.hintCap != topo.NumNodes() {
		t.Fatalf("hint cap = %d, want the node count %d", r.hintCap, topo.NumNodes())
	}
	reg := obs.New()
	r.Instrument(reg)
	hits := reg.Counter("sink.resolver.hint_hits")
	deep := topo.DeepestNode()
	accept := func(id packet.NodeID) bool { return id == deep }
	onSeedPath := func(loc int) bool {
		if loc < 1 || loc > topo.NumNodes() || !topo.HasRoute(packet.NodeID(loc)) {
			return false
		}
		return slices.Contains(routeOf(topo, packet.NodeID(loc)), deep)
	}
	learned, seeded := 0, 0
	for loc := 0; loc < 10*topo.NumNodes(); loc++ {
		rep := packet.Report{Event: 1, Location: uint32(loc), Seq: 1}
		h0 := hits.Value()
		r.Resolve(rep, mac.AnonID(testKS.Key(deep), rep, deep), packet.SinkID, false, 0, accept)
		if len(r.hints) > r.hintCap {
			t.Fatalf("after %d Locations the table holds %d hints, cap %d", loc+1, len(r.hints), r.hintCap)
		}
		_, ok := r.hints[rep.Location]
		switch hit := hits.Value() > h0; {
		case hit != onSeedPath(loc):
			t.Fatalf("Location %d: hint hit %v, but its seed path holds the marker: %v", loc, hit, onSeedPath(loc))
		case hit:
			seeded++
		case ok:
			learned++
		default:
			t.Fatalf("Location %d missed its seed and learned no hint", loc)
		}
	}
	if seeded == 0 || learned <= r.hintCap {
		t.Fatalf("%d Locations learned a hint and %d were served by their seed; want both, and more learned than the cap %d", learned, seeded, r.hintCap)
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

// TestHintPathSlicesMemoizedRootPath pins the memoized root path against
// the per-mark parent walk it replaced: in two epochs with different
// trees, for every hint tip and every start node, hintPath returns the
// tip's path strictly below start, shallowest first, and nothing when
// start is not an ancestor of the tip. Each tip is the seed of the
// Location naming it, looked up once per epoch visit, so only the epoch
// switch can make hintPath re-walk the path in the new tree.
func TestHintPathSlicesMemoizedRootPath(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 40, Side: 4, RadioRange: 1.4, Seed: 9, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	set := pinnedEpochs(t, topo, topo.Rewire(4))
	e1 := set.Current().Version
	walk := func(net *topology.Network, tip, start packet.NodeID) []packet.NodeID {
		if !net.HasRoute(tip) || !net.HasRoute(start) {
			return nil
		}
		var up []packet.NodeID
		v := tip
		for d := net.Depth(tip); d > net.Depth(start); d-- {
			up = append([]packet.NodeID{v}, up...)
			v = net.Parent(v)
		}
		if v != start || len(up) == 0 {
			return nil
		}
		return up
	}
	r := NewTopologyResolverEpochs(testKS, set)
	differ := false
	for _, tip := range topo.Nodes() {
		for _, epoch := range []topology.EpochVersion{0, e1, 0} {
			r.snapshot(epoch)
			net := set.At(epoch)
			if h, ok := r.hint(uint32(tip)); ok != net.HasRoute(tip) || ok && h.tip != tip {
				t.Fatalf("epoch %d: hint for Location %d is %v (found %v), want its seed", epoch, tip, h.tip, ok)
			}
			for _, start := range append([]packet.NodeID{packet.SinkID}, topo.Nodes()...) {
				got, want := r.hintPath(start), walk(net, tip, start)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("epoch %d, tip %v, start %v: hintPath %v, parent walk %v", epoch, tip, start, got, want)
				}
			}
			differ = differ || !reflect.DeepEqual(walk(topo, tip, packet.SinkID), walk(set.At(e1), tip, packet.SinkID))
		}
	}
	if !differ {
		t.Fatal("the rewired epoch changed no root path: the test cannot see a stale one")
	}
}

// TestSeededHintsColdStart serves honest sources that claim their own ID
// as Location through a live sink host, and checks each source's first
// packet three times: on the host's fresh resolver, in a rewired epoch,
// and after a crash and restore. Each time the resolver has learned
// nothing for the source in that epoch, so it must resolve along the
// seed, the source's own root path: no hint miss, and one probe per path
// node up to the most upstream marker.
func TestSeededHintsColdStart(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 120, Side: 7, RadioRange: 1.4, Seed: 5, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	set := pinnedEpochs(t, topo, topo.Rewire(6))
	e1 := set.Current().Version
	reg := obs.New()
	h := NewHost(func() Verifier {
		v, err := NewVerifier(marking.PNM{P: 0.5}, testKS, topo.NumNodes(), NewTopologyResolverEpochs(testKS, set))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}, topo, reg)
	probes, misses := reg.Counter("sink.resolver.probes"), reg.Counter("sink.resolver.hint_misses")

	rng := rand.New(rand.NewSource(13))
	nodes := topo.Nodes()
	var srcs []packet.NodeID
	for _, i := range rng.Perm(len(nodes))[:12] {
		srcs = append(srcs, nodes[i])
	}
	seq := uint32(0)
	firstPackets := func(phase string, epoch topology.EpochVersion) {
		t.Helper()
		net := set.At(epoch)
		for _, src := range srcs {
			if !net.HasRoute(src) {
				continue
			}
			seq++
			rep := packet.Report{Event: seq, Location: uint32(src), Seq: seq}
			msg, tip := honestPacket(t, rng, rep, routeOf(net, src), 0.5)
			p0, m0 := probes.Value(), misses.Value()
			if !h.Fold(msg, epoch, nil) {
				t.Fatalf("%s: source %v's packet dropped", phase, src)
			}
			if got := misses.Value() - m0; got != 0 {
				t.Errorf("%s: source %v's first packet missed its seed %d times", phase, src, got)
			}
			if got, want := probes.Value()-p0, uint64(net.Depth(tip)); got != want {
				t.Errorf("%s: source %v's first packet took %d probes, want %d, the depth of its most upstream marker %v", phase, src, got, want, tip)
			}
		}
	}

	firstPackets("cold sink", 0)
	moved := false
	for _, src := range srcs {
		moved = moved || !slices.Equal(routeOf(topo, src), routeOf(set.At(e1), src))
	}
	if !moved {
		t.Fatal("the rewire moved no source's route: the epoch phase cannot see a stale path")
	}
	firstPackets("rewired epoch", e1)
	if !h.Crash() || !h.Restore() {
		t.Fatal("crash and restore of a live host reported no change")
	}
	firstPackets("restored sink", e1)
	if got := reg.Counter("sink.tracker.packets").Value(); got != uint64(seq) {
		t.Fatalf("the host folded %d packets, want %d", got, seq)
	}
}

// TestTopologyResolverSeededZeroAlloc pins // pnmlint:noalloc on the
// seeded path: once the buffers have grown, the first packet for a new
// Location and the first packet after an epoch switch resolve along
// their seeds and allocate nothing.
func TestTopologyResolverSeededZeroAlloc(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 60, Side: 5, RadioRange: 1.4, Seed: 3, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	set := pinnedEpochs(t, topo, topo.Rewire(4), topo.Rewire(5))
	epochs := []topology.EpochVersion{0, 1, 2}
	r := NewTopologyResolverEpochs(testKS, set)
	reg := obs.New()
	r.Instrument(reg)
	hits, misses := reg.Counter("sink.resolver.hint_hits"), reg.Counter("sink.resolver.hint_misses")

	// Each source claims its own ID; the mark is the source's own.
	type call struct {
		rep  packet.Report
		anon [packet.AnonIDLen]byte
	}
	var calls []call
	for _, src := range topo.Nodes() {
		routed := true
		for _, e := range epochs {
			routed = routed && set.At(e).HasRoute(src)
		}
		if routed {
			rep := packet.Report{Event: 600, Location: uint32(src), Seq: 1}
			calls = append(calls, call{rep, mac.AnonID(testKS.Key(src), rep, src)})
		}
	}
	var i, e int
	accept := func(id packet.NodeID) bool { return uint32(id) == calls[i].rep.Location }
	resolve := func() { r.Resolve(calls[i].rep, calls[i].anon, packet.SinkID, false, epochs[e], accept) }
	// Warm up: every source in every epoch grows the path buffer and the
	// stamps, and builds every tree into the resolver's two.
	for e = range epochs {
		for i = range calls {
			resolve()
		}
	}
	newLocation := testing.AllocsPerRun(200, func() {
		i = (i + 1) % len(calls)
		resolve()
	})
	if newLocation != 0 {
		t.Errorf("a seeded first packet for a new Location allocates %.1f times, want 0", newLocation)
	}
	epochSwitch := testing.AllocsPerRun(200, func() {
		e = (e + 1) % len(epochs)
		resolve()
	})
	if epochSwitch != 0 {
		t.Errorf("a seeded first packet after an epoch switch allocates %.1f times, want 0", epochSwitch)
	}
	if misses.Value() != 0 || hits.Value() == 0 {
		t.Errorf("hint hits %d, misses %d: every call must resolve along its seed", hits.Value(), misses.Value())
	}
}
