package sink

import (
	"math/rand"
	"testing"

	"pnm/internal/marking"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// stubResolver streams a fixed candidate list regardless of the query,
// simulating truncated-anonymous-ID collisions.
type stubResolver struct {
	candidates []packet.NodeID
	calls      int
}

// Resolve implements Resolver.
func (s *stubResolver) Resolve(_ packet.Report, _ [packet.AnonIDLen]byte, _ packet.NodeID, _ bool, _ topology.EpochVersion, yield func(packet.NodeID) bool) {
	s.calls++
	for _, id := range s.candidates {
		if yield(id) {
			return
		}
	}
}

// TestAnonCollisionDisambiguatedByMAC: when the resolver returns several
// candidate real IDs for one anonymous mark (a truncation collision), the
// verifier must try each candidate's key and accept the one whose MAC
// verifies.
func TestAnonCollisionDisambiguatedByMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scheme := marking.PNM{P: 1}
	msg := packet.Message{Report: testReport(90)}
	msg = scheme.Mark(5, testKS.Key(5), msg, rng)

	// The stub claims nodes 9, 7 and 5 all match the anonymous ID; only
	// node 5's key verifies the MAC.
	resolver := &stubResolver{candidates: []packet.NodeID{9, 7, 5}}
	v := &NestedVerifier{keys: testKS, numNodes: 10, resolver: resolver}
	res := v.Verify(msg, 0)
	if res.Stopped || len(res.Chain) != 1 || res.Chain[0] != 5 {
		t.Fatalf("result = %+v, want chain [V5]", res)
	}
	if resolver.calls != 1 {
		t.Fatalf("resolver calls = %d, want 1", resolver.calls)
	}
}

// TestAnonCollisionAllWrongRejects: if no candidate's key verifies, the
// mark is invalid and verification stops.
func TestAnonCollisionAllWrongRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	scheme := marking.PNM{P: 1}
	msg := packet.Message{Report: testReport(91)}
	msg = scheme.Mark(5, testKS.Key(5), msg, rng)

	resolver := &stubResolver{candidates: []packet.NodeID{9, 7}}
	v := &NestedVerifier{keys: testKS, numNodes: 10, resolver: resolver}
	res := v.Verify(msg, 0)
	if !res.Stopped || len(res.Chain) != 0 {
		t.Fatalf("result = %+v, want rejection", res)
	}
}

// TestAnonEmptyResolution: an anonymous ID matching nobody stops the walk.
func TestAnonEmptyResolution(t *testing.T) {
	resolver := &stubResolver{}
	v := &NestedVerifier{keys: testKS, numNodes: 10, resolver: resolver}
	msg := packet.Message{Report: testReport(92), Marks: []packet.Mark{{Anonymous: true}}}
	if res := v.Verify(msg, 0); !res.Stopped || len(res.Chain) != 0 {
		t.Fatalf("result = %+v, want rejection", res)
	}
}

// TestDuplicateMarksFromOneNode: a mole re-using a single compromised key
// can leave two valid marks in one packet (claiming the same identity
// twice). Verification accepts both; route reconstruction must not create
// a self-loop from the repeated identity.
func TestDuplicateMarksFromOneNode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scheme := marking.Nested{}
	msg := packet.Message{Report: testReport(93)}
	msg = scheme.Mark(5, testKS.Key(5), msg, rng)
	msg = scheme.Mark(5, testKS.Key(5), msg, rng) // same node again
	msg = scheme.Mark(4, testKS.Key(4), msg, rng)

	v := &NestedVerifier{keys: testKS, numNodes: 10}
	res := v.Verify(msg, 0)
	if res.Stopped || len(res.Chain) != 3 {
		t.Fatalf("result = %+v, want all three marks", res)
	}

	o := NewOrder()
	o.AddChain(res.Chain)
	if o.HasCycle() {
		t.Fatal("repeated identity created a spurious cycle")
	}
	if got := o.Minimals(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Minimals = %v, want [V5]", got)
	}
}
