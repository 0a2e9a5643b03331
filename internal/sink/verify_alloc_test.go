package sink

import (
	"math/rand"
	"testing"

	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// markedMessage builds one fully marked message under scheme on a chain of
// n nodes, sourced at node n.
func markedMessage(t *testing.T, scheme marking.Scheme, n int) packet.Message {
	t.Helper()
	topo, err := topology.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	src := &mole.Source{ID: packet.NodeID(n), Base: packet.Report{Event: 0xAA}, Behavior: mole.MarkNever}
	msg := src.Next(&mole.Env{Scheme: scheme}, rng)
	for _, id := range topo.Forwarders(packet.NodeID(n)) {
		msg = scheme.Mark(id, testKS.Key(id), msg, rng)
	}
	return msg
}

// TestVerifyMarkZeroAlloc pins the // pnmlint:noalloc contract on the
// sink's per-mark kernel dynamically, complementing the static
// escape-analysis gate: after one warm-up packet has populated the key
// schedules, the resolver's table and the reusable encode buffer,
// re-verifying a mark — plaintext or anonymous — allocates nothing. The
// anonymous path is the one the closure-hoist fixed: the resolver probe
// callback is a method value bound once per verifier, not a closure built
// per mark.
func TestVerifyMarkZeroAlloc(t *testing.T) {
	const n = 9
	cases := []struct {
		name   string
		scheme marking.Scheme
		anon   bool
	}{
		{"plaintext-nested", marking.Nested{}, false},
		{"anonymous-pnm", marking.PNM{P: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := markedMessage(t, tc.scheme, n)
			if len(msg.Marks) == 0 {
				t.Fatal("message carries no marks")
			}
			var resolver Resolver
			if tc.anon {
				topo, err := topology.NewChain(n)
				if err != nil {
					t.Fatal(err)
				}
				resolver = NewExhaustiveResolver(testKS, topo.Nodes())
			}
			vi, err := NewVerifier(tc.scheme, testKS, n, resolver)
			if err != nil {
				t.Fatal(err)
			}
			v, ok := vi.(*NestedVerifier)
			if !ok {
				t.Fatalf("verifier is %T, want *NestedVerifier", vi)
			}
			// Warm up: binds resolveFn, fills the schedule cache, grows
			// encode buffers, builds the resolver table — and checks the chain.
			if res := v.Verify(msg, 0); len(res.Chain) != len(msg.Marks) || res.Stopped {
				t.Fatalf("warm-up verify: chain %d/%d marks, stopped=%v",
					len(res.Chain), len(msg.Marks), res.Stopped)
			}
			k := len(msg.Marks) - 1
			failures := 0
			if allocs := testing.AllocsPerRun(200, func() {
				if _, ok := v.verifyMark(msg, k, packet.SinkID, false); !ok {
					failures++
				}
			}); allocs != 0 {
				t.Errorf("verifyMark allocates %.1f times per call, want 0", allocs)
			}
			if failures > 0 {
				t.Errorf("verifyMark rejected a valid mark %d times", failures)
			}
		})
	}
}
