package sink

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pnm/internal/marking"
	"pnm/internal/packet"
)

// TestHonestChainsAlwaysVerifyProperty drives random honest paths under
// every scheme and asserts the sink accepts exactly the marks that were
// left.
func TestHonestChainsAlwaysVerifyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	resolver := NewExhaustiveResolver(testKS, nodeIDs(40))
	schemes := []marking.Scheme{
		marking.Nested{},
		marking.PNM{P: 0.5},
		marking.NaiveProbNested{P: 0.5},
		marking.AMS{P: 0.5},
		marking.PPM{P: 0.5},
	}
	f := func(seed int64, rawLen uint8) bool {
		n := int(rawLen%20) + 2
		runRng := rand.New(rand.NewSource(seed))
		for _, s := range schemes {
			v, err := NewVerifier(s, testKS, 40, resolver)
			if err != nil {
				return false
			}
			msg := packet.Message{Report: packet.Report{
				Event: runRng.Uint32(), Seq: runRng.Uint32(),
			}}
			marked := 0
			for i := n; i >= 1; i-- {
				before := len(msg.Marks)
				msg = s.Mark(packet.NodeID(i), testKS.Key(packet.NodeID(i)), msg, runRng)
				marked += len(msg.Marks) - before
			}
			res := v.Verify(msg, 0)
			if res.Stopped || len(res.Chain) != marked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestNestedCorruptionNeverYieldsUpstreamMarksProperty: flipping any bit
// of any mark in a nested-marked packet must never let the sink accept a
// mark at or before the corrupted position — the invariant behind one-hop
// precision.
func TestNestedCorruptionNeverYieldsUpstreamMarksProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, pos, bit uint8) bool {
		runRng := rand.New(rand.NewSource(seed))
		const n = 10
		// A mole between positions p and p+1 flips one bit of mark p;
		// the remaining forwarders mark the corrupted bytes.
		p := int(pos) % n
		msg := packet.Message{Report: packet.Report{Event: runRng.Uint32(), Seq: 1}}
		for i := n; i >= 1; i-- {
			msg = marking.Nested{}.Mark(packet.NodeID(i), testKS.Key(packet.NodeID(i)), msg, runRng)
			if len(msg.Marks) == p+1 {
				msg.Marks[p].MAC[int(bit)%packet.MACLen] ^= 1 << (bit % 8)
			}
		}
		v := &NestedVerifier{keys: testKS, numNodes: n}
		res := v.Verify(msg, 0)
		if !res.Stopped {
			return false // corruption must always be detected
		}
		// Accepted chain = exactly the markers after the corruption.
		if len(res.Chain) != n-p-1 {
			return false
		}
		for _, id := range res.Chain {
			// Marker at position k is node n-k; markers after p have
			// node IDs < n-p.
			if int(id) >= n-p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestPNMCorruptionDetectedProperty: the same invariant for anonymous
// marks — any bit flip in AnonID or MAC stops verification at or before
// the corrupted mark.
func TestPNMCorruptionDetectedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	resolver := NewExhaustiveResolver(testKS, nodeIDs(10))
	f := func(seed int64, pos, bit uint8, inAnon bool) bool {
		runRng := rand.New(rand.NewSource(seed))
		const n = 10
		scheme := marking.PNM{P: 1}
		p := int(pos) % n
		msg := packet.Message{Report: packet.Report{Event: runRng.Uint32(), Seq: 2}}
		for i := n; i >= 1; i-- {
			msg = scheme.Mark(packet.NodeID(i), testKS.Key(packet.NodeID(i)), msg, runRng)
			if len(msg.Marks) == p+1 {
				if inAnon {
					msg.Marks[p].AnonID[int(bit)%packet.AnonIDLen] ^= 1 << (bit % 8)
				} else {
					msg.Marks[p].MAC[int(bit)%packet.MACLen] ^= 1 << (bit % 8)
				}
			}
		}
		v := &NestedVerifier{keys: testKS, numNodes: n, resolver: resolver}
		res := v.Verify(msg, 0)
		return res.Stopped && len(res.Chain) == n-p-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyNeverPanicsOnGarbageProperty feeds decoded random bytes to
// every verifier.
func TestVerifyNeverPanicsOnGarbageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	resolver := NewExhaustiveResolver(testKS, nodeIDs(16))
	verifiers := make([]Verifier, 0, 3)
	for _, s := range []marking.Scheme{marking.PNM{P: 0.5}, marking.AMS{P: 0.5}, marking.PPM{P: 0.5}} {
		v, err := NewVerifier(s, testKS, 16, resolver)
		if err != nil {
			t.Fatal(err)
		}
		verifiers = append(verifiers, v)
	}
	f := func(raw []byte) bool {
		msg, err := packet.Decode(raw)
		if err != nil {
			return true // undecodable garbage is rejected upstream
		}
		for _, v := range verifiers {
			res := v.Verify(msg, 0) // must not panic
			if len(res.Chain) > len(msg.Marks) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
