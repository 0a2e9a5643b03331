package sink

import (
	"math/rand"
	"slices"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// The tests in this file pin the reader-side PathProber and the
// verifier's matched-mark check: an honest chain is matched whole in the
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
func pnmVerifier(t testing.TB, p float64, set *topology.EpochSet) *NestedVerifier {
	t.Helper()
	v, err := NewVerifier(marking.PNM{P: p}, testKS, set.Current().Net.NumNodes(), NewTopologyResolverEpochs(testKS, set))
	if err != nil {
		t.Fatal(err)
	}
	return v.(*NestedVerifier)
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
// accepts the same chain while the sink's resolver hashes nothing, and
// that the prober hashes at most one AnonID per path node.
func TestProberMatchesHonestChain(t *testing.T) {
	topo, src := probeField(t, 3, 1.4)
	set := topology.NewEpochSet(topo)
	reg := obs.New()
	prober := newPathProber(testKS, set, reg)
	plain := pnmVerifier(t, 0.5, set)
	matched := pnmVerifier(t, 0.5, set)
	matched.Instrument(reg)
	rng := rand.New(rand.NewSource(9))
	pathLen := uint64(topo.Depth(src))
	var m Matches
	for seq := uint32(1); seq <= 50; seq++ {
		msg := markAlong(topo, src, 0.5, packet.Message{Report: packet.Report{Event: 7, Location: uint32(src), Seq: seq}}, rng)
		before := reg.Counter("transport.prober.probes").Value()
		prober.Probe(&msg, 0, &m)
		if probes := reg.Counter("transport.prober.probes").Value() - before; probes > pathLen {
			t.Fatalf("packet %d: %d probes on a %d-node path", seq, probes, pathLen)
		}
		if len(m.ids) != len(msg.Marks) {
			t.Fatalf("packet %d: matched %d of %d honest marks", seq, len(m.ids), len(msg.Marks))
		}
		want := plain.Verify(msg, 0)
		wantChain := slices.Clone(want.Chain)
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
	if n := reg.Counter("transport.prober.marks_unmatched").Value(); n != 0 {
		t.Errorf("%d honest marks left unmatched", n)
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
	prober := newPathProber(testKS, set, nil)
	plain := pnmVerifier(t, 1, set)
	matched := pnmVerifier(t, 1, set)
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
	want := pnmVerifier(t, 1, set).Verify(msg, 0)
	if !want.Stopped || !slices.Equal(want.Chain, []packet.NodeID{b}) {
		t.Fatalf("without matches: %+v, want the chain [%v] stopped", want, b)
	}
	m := Matches{ids: []packet.NodeID{b, a}}
	if got := pnmVerifier(t, 1, set).verify(msg, 0, &m); !sameResult(got, Result{Chain: []packet.NodeID{b}, Stopped: true}) {
		t.Fatalf("with a match outside the subtree: %+v, want the chain [%v] stopped", got, b)
	}
}

// TestMatchedMarkNeedsMAC corrupts one MAC of a probed honest chain: the
// mark still matches on the path, its MAC does not verify, and the
// verifier must stop there exactly as without matches.
func TestMatchedMarkNeedsMAC(t *testing.T) {
	topo, src := probeField(t, 3, 1.4)
	set := topology.NewEpochSet(topo)
	prober := newPathProber(testKS, set, nil)
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
	want := pnmVerifier(t, 1, set).Verify(msg, 0)
	wantChain := slices.Clone(want.Chain)
	if !want.Stopped || len(wantChain) != len(msg.Marks)-1-k {
		t.Fatalf("without matches: %+v, want a stop at mark %d", want, k)
	}
	if got := pnmVerifier(t, 1, set).verify(msg, 0, &m); !sameResult(got, Result{Chain: wantChain, Stopped: true}) {
		t.Fatalf("with matches %+v, without %+v", got, want)
	}
}

// fuzzInput hands out a fuzz input's bytes, then zeros.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// fuzzTampers are the forwarding mole's strategies a fuzz input picks
// from.
var fuzzTampers = [][]mole.Tamper{
	nil,
	{mole.RemoveFirst{N: 1}},
	{mole.RemoveAll{}},
	{mole.Reorder{Reverse: true}},
	{mole.Reorder{}},
	{mole.Alter{First: 1}},
	{mole.InsertFake{N: 2}},
	{mole.RemoveFirst{N: 2}, mole.InsertFake{N: 1}},
}

// FuzzProbeMatchesVerify decodes its input into a field of at most 60
// nodes, a Rewire schedule of up to four epochs, a source with its
// Location (honest, another node's, out of range or zero), a forwarding
// mole's tamper strategy and marking conduct, and a packet sequence,
// each packet marked in one epoch and stamped with another and some
// replayed. Every packet must verify to the same chain with the reader's
// matches as without them, each verifier keeping its own resolver state
// across the sequence.
func FuzzProbeMatchesVerify(f *testing.F) {
	f.Add([]byte{52, 3, 1, 0, 0, 9, 7, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{40, 7, 3, 2, 11, 23, 2, 5, 1, 6, 9, 12, 0x05, 0x0A, 0x81, 0x42, 0x06, 0xC3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		n := 8 + int(in.next())%53
		seed := int64(in.next())
		topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
			Nodes: n, Side: 4, RadioRange: 1.2 + float64(in.next()%8)/10, Seed: seed, SinkAtCorner: true,
		})
		if err != nil {
			return
		}
		nets := []*topology.Network{topo}
		for e := int(in.next() % 4); e > 0; e-- {
			nets = append(nets, nets[len(nets)-1].Rewire(int64(in.next())))
		}
		set := pinnedEpochs(t, topo, nets[1:]...)
		p := []float64{1, 0.5, 0.25}[in.next()%3]
		scheme := marking.PNM{P: p}
		nodes := topo.Nodes()
		src := nodes[int(in.next())%len(nodes)]
		moleID := nodes[int(in.next())%len(nodes)]
		partner := nodes[int(in.next())%len(nodes)]
		var loc uint32
		switch b := in.next(); b % 4 {
		case 0:
			loc = uint32(src)
		case 1:
			loc = uint32(nodes[int(b>>2)%len(nodes)])
		case 2:
			loc = uint32(n + 1 + int(b>>2))
		}
		env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{
			src: testKS.Key(src), moleID: testKS.Key(moleID), partner: testKS.Key(partner),
		}}
		conduct := in.next()
		source := &mole.Source{
			ID: src, Base: packet.Report{Event: 0xF00D, Location: loc},
			Behavior: []mole.MarkBehavior{mole.MarkNever, mole.MarkHonest}[conduct%2], FakeMarks: int(conduct>>1) % 2,
		}
		fw := &mole.Forwarder{
			ID: moleID, SwapPartner: partner, Tampers: fuzzTampers[int(conduct>>2)%len(fuzzTampers)],
			Behavior: []mole.MarkBehavior{mole.MarkHonest, mole.MarkNever, mole.MarkSwap}[int(conduct>>5)%3],
		}
		rng := rand.New(rand.NewSource(seed))
		plain := pnmVerifier(t, p, set)
		matched := pnmVerifier(t, p, set)
		prober := newPathProber(testKS, set, nil)
		var replays mole.Replayer
		var m Matches
	packets:
		for i, count := 0, 1+int(in.next()%12); i < count; i++ {
			b := in.next()
			marked, stamped := int(b&3)%len(nets), topology.EpochVersion(int(b>>2&3)%len(nets))
			msg := source.Next(env, rng)
			for _, hop := range nets[marked].Forwarders(src) {
				if hop != moleID {
					msg = scheme.Mark(hop, testKS.Key(hop), msg, rng)
					continue
				}
				var ok bool
				if msg, ok = fw.Process(msg, env, rng); !ok {
					continue packets
				}
			}
			if b&0x40 != 0 {
				replays.Capture(msg)
			}
			if b&0x80 != 0 {
				msg, _ = replays.Next()
			}
			want := plain.Verify(msg, stamped)
			want.Chain = slices.Clone(want.Chain)
			prober.Probe(&msg, stamped, &m)
			if got := matched.verify(msg, stamped, &m); !sameResult(got, want) {
				t.Fatalf("packet %d (marked in epoch %d, stamped %d, Location %d, matches %v): with matches %+v, without %+v",
					i, marked, stamped, loc, m.ids, got, want)
			}
		}
	})
}
