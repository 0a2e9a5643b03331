package sink

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pnm/internal/analytic"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// The tests in this file pin the reader-side TopologyResolver.Probe and
// the verifier's matched-mark check: an honest chain is matched whole in the
// frame's stamped epoch, and a match changes no chain — the verifier
// takes a matched node only inside the resolver's candidate set and only
// if its MAC verifies, and resolves everything else as before.

// probeField returns a 60-node field and a deep source on it.
func probeField(t testing.TB, seed int64, radio float64) (*topology.Network, packet.NodeID) {
	t.Helper()
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 60, Side: 5, RadioRange: radio, Seed: seed, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo, topo.DeepestNode()
}

// pnmVerifier returns a PNM verifier over a TopologyResolver on set.
func pnmVerifier(t testing.TB, set *topology.EpochSet) *NestedVerifier {
	t.Helper()
	return nestedVerifier(t, set.Current().Net.NumNodes(), NewTopologyResolverEpochs(testKS, set))
}

// markAlong marks msg at every forwarder of src in topo under PNM with
// probability p.
func markAlong(topo *topology.Network, src packet.NodeID, p float64, msg packet.Message, rng *rand.Rand) packet.Message {
	scheme := marking.PNM{P: p}
	for _, hop := range topo.Forwarders(src) {
		msg = scheme.Mark(hop, testKS.Key(hop), msg, rng)
	}
	return msg
}

// sameResult reports whether two verification results carry the same
// chain and stop flag.
func sameResult(a, b Result) bool {
	return a.Stopped == b.Stopped && slices.Equal(a.Chain, b.Chain)
}

// TestProberMatchesHonestChain checks that the prober matches every mark
// of an honest chain to its marker, that verification with the matches
// accepts the same chain while the sink's resolver hashes nothing and
// neither resolver builds a tree, and that the prober hashes at most one
// AnonID per path node.
func TestProberMatchesHonestChain(t *testing.T) {
	topo, src := probeField(t, 3, 1.4)
	set := topology.NewEpochSet(topo)
	reg := obs.New()
	prober := NewTopologyResolverEpochs(testKS, set)
	prober.Instrument(reg)
	plain := pnmVerifier(t, set)
	matched := pnmVerifier(t, set)
	matched.Instrument(reg)
	rng := rand.New(rand.NewSource(9))
	pathLen := topo.Depth(src)
	var m Matches
	marks, matchedMarks := 0, 0
	for seq := uint32(1); seq <= 50; seq++ {
		msg := markAlong(topo, src, 0.5, packet.Message{Report: packet.Report{Event: 7, Location: uint32(src), Seq: seq}}, rng)
		marks += len(msg.Marks)
		probes, n := prober.Probe(&msg, 0, &m)
		matchedMarks += n
		if probes > pathLen {
			t.Fatalf("packet %d: %d probes on a %d-node path", seq, probes, pathLen)
		}
		if n != len(m.ids) || len(m.ids) != len(msg.Marks) {
			t.Fatalf("packet %d: matched %d of %d honest marks", seq, len(m.ids), len(msg.Marks))
		}
		want := plain.Verify(msg, 0)
		wantChain := slices.Clone(want.Chain)
		// The matched verify MACs the bytes the message would arrive as.
		m.SetWire(msg.Encode(nil))
		got := matched.verify(msg, 0, &m)
		if want.Stopped || !sameResult(Result{Chain: wantChain}, got) {
			t.Fatalf("packet %d: with matches %+v, without %+v", seq, got, want)
		}
		for j, id := range m.ids {
			if id != wantChain[len(wantChain)-1-j] {
				t.Fatalf("packet %d: match %d is %v, the marker is %v", seq, j, id, wantChain[len(wantChain)-1-j])
			}
		}
	}
	if n := reg.Counter("sink.resolver.probes").Value(); n != 0 {
		t.Errorf("the sink's resolver hashed %d anonymous IDs on fully matched packets", n)
	}
	if matchedMarks != marks {
		t.Errorf("matched %d of %d honest marks", matchedMarks, marks)
	}
	if n := reg.Counter("sink.resolver.tree_builds").Value(); n != 0 {
		t.Errorf("%d tree builds on a fully matched honest stream, want 0", n)
	}
}

// TestProberWalksStampedEpoch marks packets along the source's route in
// epoch 0 after the set has advanced to a rewired epoch 1 that moves the
// route: probed at the frame's stamp, every mark matches; probed in the
// current tree, the walk misses. Verification agrees either way.
func TestProberWalksStampedEpoch(t *testing.T) {
	topo, src := probeField(t, 3, 1.6)
	var rewired *topology.Network
	for s := int64(1); s < 50 && rewired == nil; s++ {
		if nw := topo.Rewire(s * 101); !slices.Equal(nw.Forwarders(src), topo.Forwarders(src)) {
			rewired = nw
		}
	}
	if rewired == nil {
		t.Fatal("no rewire moves the source's route")
	}
	set := pinnedEpochs(t, topo, rewired)
	prober := NewTopologyResolverEpochs(testKS, set)
	plain := pnmVerifier(t, set)
	matched := pnmVerifier(t, set)
	rng := rand.New(rand.NewSource(4))
	stale := 0
	var m Matches
	for seq := uint32(1); seq <= 20; seq++ {
		msg := markAlong(topo, src, 1, packet.Message{Report: packet.Report{Event: 8, Location: uint32(src), Seq: seq}}, rng)
		prober.Probe(&msg, 1, &m)
		if len(m.ids) < len(msg.Marks) {
			stale++
		}
		prober.Probe(&msg, 0, &m)
		if len(m.ids) != len(msg.Marks) {
			t.Fatalf("packet %d stamped at epoch 0: matched %d of %d marks", seq, len(m.ids), len(msg.Marks))
		}
		want := plain.Verify(msg, 0)
		wantChain := slices.Clone(want.Chain)
		if got := matched.verify(msg, 0, &m); want.Stopped || !sameResult(Result{Chain: wantChain}, got) {
			t.Fatalf("packet %d: with matches %+v, without %+v", seq, got, want)
		}
	}
	if stale == 0 {
		t.Fatal("epoch 1's tree matches every epoch-0 chain; the case tests nothing")
	}
}

// TestMatchOutsideSubtreeFallsBack feeds the verifier a match that lies
// outside the previous marker's subtree although its MAC verifies: a
// chain whose two real marks come from nodes on different branches. The
// resolver would never offer the upstream node, so the verifier must not
// accept it from a match either.
func TestMatchOutsideSubtreeFallsBack(t *testing.T) {
	topo, _ := probeField(t, 3, 1.4)
	// a and b: routed nodes, neither in the other's subtree.
	var a, b packet.NodeID
	for _, x := range topo.Nodes() {
		for _, y := range topo.Nodes() {
			if a == 0 && x != y && !strictlyBelow(topo, x, y) && !strictlyBelow(topo, y, x) {
				a, b = x, y
			}
		}
	}
	if a == 0 {
		t.Fatal("no two nodes on separate branches")
	}
	set := topology.NewEpochSet(topo)
	rep := packet.Report{Event: 9, Location: uint32(a), Seq: 1}
	msg := packet.Message{Report: rep}
	msg = appendAnonMark(msg, testKS.Key(a), mac.AnonID(testKS.Key(a), rep, a))
	msg = appendAnonMark(msg, testKS.Key(b), mac.AnonID(testKS.Key(b), rep, b))
	want := pnmVerifier(t, set).Verify(msg, 0)
	if !want.Stopped || !slices.Equal(want.Chain, []packet.NodeID{b}) {
		t.Fatalf("without matches: %+v, want the chain [%v] stopped", want, b)
	}
	m := Matches{ids: []packet.NodeID{b, a}}
	if got := pnmVerifier(t, set).verify(msg, 0, &m); !sameResult(got, Result{Chain: []packet.NodeID{b}, Stopped: true}) {
		t.Fatalf("with a match outside the subtree: %+v, want the chain [%v] stopped", got, b)
	}
}

// TestMatchedMarkNeedsMAC corrupts one MAC of a probed honest chain: the
// mark still matches on the path, its MAC does not verify, and the
// verifier must stop there exactly as without matches.
func TestMatchedMarkNeedsMAC(t *testing.T) {
	topo, src := probeField(t, 3, 1.4)
	set := topology.NewEpochSet(topo)
	prober := NewTopologyResolverEpochs(testKS, set)
	rng := rand.New(rand.NewSource(5))
	hops := topo.Forwarders(src)
	if len(hops) < 3 {
		t.Fatalf("route of %d forwarders is too short", len(hops))
	}
	// Mark k's MAC is corrupted before the downstream hops mark, so
	// their MACs cover the corrupted prefix and still verify.
	k := len(hops) / 2
	msg := packet.Message{Report: packet.Report{Event: 10, Location: uint32(src), Seq: 1}}
	for i, hop := range hops {
		msg = marking.PNM{P: 1}.Mark(hop, testKS.Key(hop), msg, rng)
		if i == k {
			msg.Marks[k].MAC[0] ^= 0x5A
		}
	}
	var m Matches
	prober.Probe(&msg, 0, &m)
	if len(m.ids) != len(msg.Marks) {
		t.Fatalf("matched %d of %d marks; the corrupted mark's AnonID still matches", len(m.ids), len(msg.Marks))
	}
	want := pnmVerifier(t, set).Verify(msg, 0)
	wantChain := slices.Clone(want.Chain)
	if !want.Stopped || len(wantChain) != len(msg.Marks)-1-k {
		t.Fatalf("without matches: %+v, want a stop at mark %d", want, k)
	}
	if got := pnmVerifier(t, set).verify(msg, 0, &m); !sameResult(got, Result{Chain: wantChain, Stopped: true}) {
		t.Fatalf("with matches %+v, without %+v", got, want)
	}
}

// keyedField is the keyed-2k workload's deployment: a 2,048-node field
// (radio degree about ln n + 5, sink at the corner), its 64 deepest nodes
// as the sources, and the PNM probability that leaves about three marks
// on the deepest source's packets.
func keyedField(tb testing.TB) (topo *topology.Network, sources []packet.NodeID, scheme marking.PNM) {
	tb.Helper()
	const nodes, hosts = 2048, 64
	degree := math.Log(nodes) + 5
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: nodes, Side: math.Sqrt(nodes * math.Pi / degree), RadioRange: 1,
		Seed: 17, SinkAtCorner: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sources = topo.Nodes()
	sort.SliceStable(sources, func(i, j int) bool { return topo.Depth(sources[i]) > topo.Depth(sources[j]) })
	sources = sources[:hosts]
	return topo, sources, marking.PNM{P: analytic.ProbabilityForMarks(topo.Depth(sources[0])-1, 3)}
}

// BenchmarkReaderProbeKeyed measures a connection reader's per-frame
// probe on keyed-2k's field: one op is one frame from the 64 deepest
// sources in turn, each with its own report and marked along its route,
// probed through a resolver that only probes, as Host.NewProber makes
// for every reader.
func BenchmarkReaderProbeKeyed(b *testing.B) {
	topo, sources, scheme := keyedField(b)
	rng := rand.New(rand.NewSource(1))
	msgs := make([]packet.Message, 16*len(sources))
	for i := range msgs {
		src := sources[i%len(sources)]
		msg := packet.Message{Report: packet.Report{Event: uint32(i + 1), Location: uint32(src), Seq: 1}}
		for _, hop := range topo.Forwarders(src) {
			msg = scheme.Mark(hop, testKS.Key(hop), msg, rng)
		}
		msgs[i] = msg
	}
	r := NewTopologyResolverEpochs(testKS, topology.NewEpochSet(topo))
	var m Matches
	for i := range msgs {
		if _, matched := r.Probe(&msgs[i], 0, &m); matched != len(msgs[i].Marks) {
			b.Fatalf("frame %d: matched %d of %d honest marks", i, matched, len(msgs[i].Marks))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Probe(&msgs[i%len(msgs)], 0, &m)
	}
}
