package sink

import (
	"math/rand"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

var testKS = mac.NewKeyStore([]byte("sink-test"))

func testReport(seq uint32) packet.Report {
	return packet.Report{Event: 0xBEEF, Location: 3, Timestamp: 42, Seq: seq}
}

// forward walks msg through the given chain of legitimate forwarders
// (upstream first), applying the scheme at each hop.
func forward(s marking.Scheme, path []packet.NodeID, msg packet.Message, rng *rand.Rand) packet.Message {
	for _, id := range path {
		msg = s.Mark(id, testKS.Key(id), msg, rng)
	}
	return msg
}

func nodeIDs(n int) []packet.NodeID {
	out := make([]packet.NodeID, n)
	for i := range out {
		out[i] = packet.NodeID(i + 1)
	}
	return out
}

func TestNestedVerifierAcceptsHonestChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	path := []packet.NodeID{5, 4, 3, 2, 1}
	msg := forward(marking.Nested{}, path, packet.Message{Report: testReport(1)}, rng)

	v := &NestedVerifier{keys: testKS, numNodes: 5}
	res := v.Verify(msg, 0)
	if res.Stopped {
		t.Fatal("honest chain stopped verification")
	}
	if len(res.Chain) != 5 {
		t.Fatalf("chain = %v, want all 5", res.Chain)
	}
	for i, want := range path {
		if res.Chain[i] != want {
			t.Fatalf("chain = %v, want %v", res.Chain, path)
		}
	}
}

func TestNestedVerifierStopsAtTamperedMark(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	path := []packet.NodeID{5, 4, 3, 2, 1}
	msg := forward(marking.Nested{}, path, packet.Message{Report: testReport(1)}, rng)

	// Altering V5's (first) mark invalidates V4..V1's MACs too, because
	// each covers the tampered bytes: verification accepts nothing.
	bad := msg.Clone()
	bad.Marks[0].MAC[0] ^= 1
	v := &NestedVerifier{keys: testKS, numNodes: 5}
	res := v.Verify(bad, 0)
	if !res.Stopped || len(res.Chain) != 0 {
		t.Fatalf("result = %+v, want everything rejected", res)
	}

	// Removing V5's mark instead re-frames the bytes: V4's MAC no longer
	// matches what it covered, so again nothing verifies.
	removed := msg.Clone()
	removed.Marks = removed.Marks[1:]
	res = v.Verify(removed, 0)
	if !res.Stopped || len(res.Chain) != 0 {
		t.Fatalf("after removal result = %+v, want everything rejected", res)
	}
}

func TestNestedVerifierAcceptsSuffixAfterMidTamper(t *testing.T) {
	// A mole between V3 and V2 garbles upstream marks; V2 and V1 mark the
	// garbled bytes afterwards, so their MACs still verify: the traceback
	// stops at V2, within one hop of the (hypothetical) mole.
	rng := rand.New(rand.NewSource(3))
	msg := forward(marking.Nested{}, []packet.NodeID{5, 4, 3}, packet.Message{Report: testReport(1)}, rng)
	tampered := msg.Clone()
	tampered.Marks[0].MAC[3] ^= 0x55 // mole garbles V5's mark
	tampered = forward(marking.Nested{}, []packet.NodeID{2, 1}, tampered, rng)

	v := &NestedVerifier{keys: testKS, numNodes: 5}
	res := v.Verify(tampered, 0)
	if !res.Stopped {
		t.Fatal("expected verification to stop at the garbled mark")
	}
	if len(res.Chain) != 2 || res.Chain[0] != 2 || res.Chain[1] != 1 {
		t.Fatalf("chain = %v, want [V2 V1]", res.Chain)
	}
}

func TestNestedVerifierRejectsForeignIDs(t *testing.T) {
	v := &NestedVerifier{keys: testKS, numNodes: 5}
	msg := packet.Message{Report: testReport(1), Marks: []packet.Mark{{ID: 9}}}
	if res := v.Verify(msg, 0); len(res.Chain) != 0 || !res.Stopped {
		t.Fatalf("out-of-range ID accepted: %+v", res)
	}
	msg = packet.Message{Report: testReport(1), Marks: []packet.Mark{{ID: packet.SinkID}}}
	if res := v.Verify(msg, 0); len(res.Chain) != 0 {
		t.Fatal("sink ID accepted as a marker")
	}
}

func TestNestedVerifierRejectsAnonymousMarkWithoutResolver(t *testing.T) {
	v := &NestedVerifier{keys: testKS, numNodes: 5}
	msg := packet.Message{Report: testReport(1), Marks: []packet.Mark{{Anonymous: true}}}
	if res := v.Verify(msg, 0); len(res.Chain) != 0 || !res.Stopped {
		t.Fatal("anonymous mark accepted under plaintext scheme")
	}
}

func TestPNMVerifyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	scheme := marking.PNM{P: 1} // every node marks, for a deterministic test
	path := []packet.NodeID{6, 5, 4, 3, 2, 1}
	msg := forward(scheme, path, packet.Message{Report: testReport(7)}, rng)

	resolver := NewExhaustiveResolver(testKS, nodeIDs(6))
	v := &NestedVerifier{keys: testKS, numNodes: 6, resolver: resolver}
	res := v.Verify(msg, 0)
	if res.Stopped || len(res.Chain) != 6 {
		t.Fatalf("result = %+v, want full anonymous chain", res)
	}
	for i, want := range path {
		if res.Chain[i] != want {
			t.Fatalf("chain = %v, want %v", res.Chain, path)
		}
	}
}

func TestPNMVerifyStopsAtForgedAnonymousMark(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scheme := marking.PNM{P: 1}
	msg := forward(scheme, []packet.NodeID{4, 3}, packet.Message{Report: testReport(8)}, rng)
	forged := msg.Clone()
	forged.Marks = append(forged.Marks, packet.Mark{Anonymous: true, AnonID: [4]byte{1, 2, 3, 4}})
	forged = forward(scheme, []packet.NodeID{2, 1}, forged, rng)

	resolver := NewExhaustiveResolver(testKS, nodeIDs(4))
	v := &NestedVerifier{keys: testKS, numNodes: 4, resolver: resolver}
	res := v.Verify(forged, 0)
	if !res.Stopped {
		t.Fatal("forged anonymous mark did not stop verification")
	}
	if len(res.Chain) != 2 || res.Chain[0] != 2 {
		t.Fatalf("chain = %v, want [V2 V1]", res.Chain)
	}
}

func TestAMSVerifierAcceptsIndependentMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	msg := forward(marking.AMS{P: 1}, []packet.NodeID{3, 2, 1}, packet.Message{Report: testReport(9)}, rng)

	v := &AMSVerifier{keys: testKS, numNodes: 3}
	res := v.Verify(msg, 0)
	if len(res.Chain) != 3 {
		t.Fatalf("chain = %v, want 3 marks", res.Chain)
	}

	// The AMS weakness: remove the most upstream mark and the rest still
	// verify — the sink is silently misled to V2.
	cut := msg.Clone()
	cut.Marks = cut.Marks[1:]
	res = v.Verify(cut, 0)
	if len(res.Chain) != 2 || res.Chain[0] != 2 {
		t.Fatalf("chain after removal = %v, want [V2 V1]", res.Chain)
	}
}

func TestAMSVerifierDiscardsInvalidMarksIndividually(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	msg := forward(marking.AMS{P: 1}, []packet.NodeID{3, 2, 1}, packet.Message{Report: testReport(10)}, rng)
	msg.Marks[1].MAC[0] ^= 1
	v := &AMSVerifier{keys: testKS, numNodes: 3}
	res := v.Verify(msg, 0)
	if len(res.Chain) != 2 || res.Chain[0] != 3 || res.Chain[1] != 1 {
		t.Fatalf("chain = %v, want [V3 V1]", res.Chain)
	}
}

func TestPPMVerifierTrustsEverything(t *testing.T) {
	v := &PPMVerifier{numNodes: 10}
	msg := packet.Message{Report: testReport(11), Marks: []packet.Mark{
		{ID: 7}, {ID: 3}, {Anonymous: true}, {ID: 99},
	}}
	res := v.Verify(msg, 0)
	if len(res.Chain) != 2 || res.Chain[0] != 7 || res.Chain[1] != 3 {
		t.Fatalf("chain = %v, want [V7 V3]", res.Chain)
	}
}

func TestNewVerifierFactory(t *testing.T) {
	resolver := NewExhaustiveResolver(testKS, nodeIDs(4))
	tests := []struct {
		scheme marking.Scheme
		want   string
	}{
		{marking.Nested{}, "nested"},
		{marking.NaiveProbNested{P: 0.3}, "nested"},
		{marking.PNM{P: 0.3}, "nested"},
		{marking.AMS{P: 0.3}, "ams"},
		{marking.PPM{P: 0.3}, "ppm"},
		{marking.None{}, "ppm"},
	}
	for _, tt := range tests {
		v, err := NewVerifier(tt.scheme, testKS, 4, resolver)
		if err != nil {
			t.Fatalf("NewVerifier(%s): %v", tt.scheme.Name(), err)
		}
		if v.Name() != tt.want {
			t.Fatalf("NewVerifier(%s).Name() = %q, want %q", tt.scheme.Name(), v.Name(), tt.want)
		}
	}
	if _, err := NewVerifier(marking.PNM{P: 0.3}, testKS, 4, nil); err == nil {
		t.Fatal("want error for PNM without resolver")
	}
	// A PNM verifier hashes through its resolver's schedule cache.
	v, err := NewVerifier(marking.PNM{P: 0.3}, testKS, 4, resolver)
	if err != nil {
		t.Fatal(err)
	}
	if v.(*NestedVerifier).hasher != resolver.hasher {
		t.Fatal("PNM verifier built a second schedule cache instead of sharing its resolver's")
	}
}

func TestResolversAgree(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 80, Side: 6, RadioRange: 1.5, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	exh := NewExhaustiveResolver(testKS, topo.Nodes())
	topoRes := NewTopologyResolver(testKS, topo)
	rep := testReport(20)
	for _, id := range topo.Nodes() {
		anon := mac.AnonID(testKS.Key(id), rep, id)
		prev := topo.Parent(id)
		havePrev := prev != packet.SinkID

		got := ResolveAll(exh, rep, anon, prev, havePrev, 0)
		if !contains(got, id) {
			t.Fatalf("exhaustive resolver missed %v", id)
		}
		got = ResolveAll(topoRes, rep, anon, prev, havePrev, 0)
		if !contains(got, id) {
			t.Fatalf("topology resolver missed %v (prev %v)", id, prev)
		}
	}
}

func TestExhaustiveResolverCachesPerReport(t *testing.T) {
	r := NewExhaustiveResolver(testKS, nodeIDs(16))
	rep := testReport(30)
	anon := mac.AnonID(testKS.Key(5), rep, 5)
	if got := ResolveAll(r, rep, anon, 0, false, 0); !contains(got, 5) {
		t.Fatal("resolver missed node 5")
	}
	// A different report must get its own table.
	rep2 := testReport(31)
	anon2 := mac.AnonID(testKS.Key(5), rep2, 5)
	if got := ResolveAll(r, rep2, anon2, 0, false, 0); !contains(got, 5) {
		t.Fatal("resolver served a stale table")
	}
	if got := ResolveAll(r, rep2, anon, 0, false, 0); contains(got, 5) && anon != anon2 {
		t.Fatal("old anonymous ID resolved under the new report")
	}
}

// TestExhaustiveResolverLRUEviction pins the cache's deterministic LRU
// semantics: hits keep a table alive, misses past capacity evict the least
// recently used table, and eviction only costs a rebuild (never wrong
// answers).
func TestExhaustiveResolverLRUEviction(t *testing.T) {
	reg := obs.New()
	r := NewExhaustiveResolverCache(testKS, nodeIDs(16), 2)
	r.Instrument(reg)
	builds := reg.Counter("sink.resolver.table_builds")
	hits := reg.Counter("sink.resolver.cache_hits")

	resolve := func(seq uint32) {
		rep := testReport(seq)
		anon := mac.AnonID(testKS.Key(3), rep, 3)
		if got := ResolveAll(r, rep, anon, 0, false, 0); !contains(got, 3) {
			t.Fatalf("resolver missed node 3 under report %d", seq)
		}
	}

	resolve(40) // build A
	resolve(41) // build B
	resolve(40) // hit A
	resolve(41) // hit B
	if b, h := builds.Value(), hits.Value(); b != 2 || h != 2 {
		t.Fatalf("builds=%d hits=%d, want 2/2", b, h)
	}
	resolve(42) // build C, evicts A (LRU: A older than B)
	resolve(41) // hit B (still cached)
	if b, h := builds.Value(), hits.Value(); b != 3 || h != 3 {
		t.Fatalf("builds=%d hits=%d, want 3/3", b, h)
	}
	resolve(40) // rebuild A (was evicted), evicts C
	if b := builds.Value(); b != 4 {
		t.Fatalf("builds=%d, want 4 after eviction", b)
	}
}

func contains(ids []packet.NodeID, want packet.NodeID) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}
