package sink

import (
	"testing"

	"pnm/internal/packet"
	"pnm/internal/topology"
)

// The tests in this file pin the stale-resolver-after-Reroute fix: a
// route repair that changes a marker's depth must not break resolution of
// packets forwarded under the repaired tree. The pre-fix netsim built one
// TopologyResolver from the start-up topology and kept it for the run, so
// a hinted anonymous mark whose marker re-homed into a different subtree
// was never found — the same wrongly-Stopped-honest-chain symptom the
// PR 3 collision fix addressed, reachable via any fault plan that changes
// depths. The fix threads the packet's arrival epoch to the resolver.

// epochChurnFixture builds a 2x3 grid, crashes node 1 and reroutes:
//
//	base tree: 1->0 2->0 3->1 4->2 5->3      repaired: 2->0 3->2 4->2 5->3
//
// Node 3 re-homes from 1's subtree into 2's. It returns both trees and a
// message whose marks were laid down along the repaired path 5 -> 3 -> 2
// (the source, node 5, is a mole and never marks).
func epochChurnFixture(t *testing.T) (base, repaired *topology.Network, msg packet.Message) {
	t.Helper()
	base, err := topology.NewGrid(topology.GridConfig{Width: 2, Height: 3, Spacing: 1, RadioRange: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := base.Parent(3); p != 1 {
		t.Fatalf("fixture drift: base parent of node 3 = %d, want 1", p)
	}
	repaired = base.Reroute(
		func(id packet.NodeID) bool { return id == 1 },
		func(a, b packet.NodeID) bool { return false },
	)
	if p := repaired.Parent(3); p != 2 {
		t.Fatalf("fixture drift: repaired parent of node 3 = %d, want 2", p)
	}
	msg = packet.Message{Report: testReport(400)}
	for _, id := range repaired.Forwarders(5) {
		anon := realAnonID(id, msg.Report)
		msg = appendAnonMark(msg, testKS.Key(id), anon)
	}
	if len(msg.Marks) != 2 {
		t.Fatalf("fixture drift: %d marks, want 2 (nodes 3 then 2)", len(msg.Marks))
	}
	return base, repaired, msg
}

// TestStaleResolverAfterRerouteWronglyStops reconstructs the pre-fix
// behavior — a resolver pinned to the start-up tree, epoch-blind — and
// shows the honest chain is wrongly reported Stopped: the hinted search
// for node 3 walks node 2's base-tree subtree, where 3 does not live.
func TestStaleResolverAfterRerouteWronglyStops(t *testing.T) {
	base, _, msg := epochChurnFixture(t)
	stale := NewTopologyResolver(testKS, base)
	res := verifyWith(t, base, stale, msg)
	if !res.Stopped {
		t.Fatalf("pre-fix resolver unexpectedly accepted the chain: %+v", res)
	}
	if len(res.Chain) != 1 || res.Chain[0] != 2 {
		t.Fatalf("pre-fix chain = %v, want the truncated [2]", res.Chain)
	}
}

// TestEpochAwareResolutionSurvivesReroute is the fix: resolving against
// the packet's arrival epoch recovers the full chain, while the same
// verifier handed the stale epoch still reproduces the bug — the stamp,
// not the resolver construction, is what decides.
func TestEpochAwareResolutionSurvivesReroute(t *testing.T) {
	base, repaired, msg := epochChurnFixture(t)
	set := pinnedEpochs(t, base, repaired)
	ep := set.Current()
	r := NewTopologyResolverEpochs(testKS, set)
	v := &NestedVerifier{keys: testKS, numNodes: base.NumNodes(), resolver: r}

	res := v.Verify(msg, ep.Version)
	if res.Stopped || len(res.Chain) != 2 || res.Chain[0] != 3 || res.Chain[1] != 2 {
		t.Fatalf("epoch-aware result = %+v, want chain [3 2]", res)
	}
	if res := v.Verify(msg, 0); !res.Stopped {
		t.Fatalf("base-epoch resolution of a post-repair packet should stop, got %+v", res)
	}
}

// realAnonID computes the true anonymous ID node id would put on a mark.
func realAnonID(id packet.NodeID, rep packet.Report) [packet.AnonIDLen]byte {
	return testKS.Hasher().AnonID(id, rep)
}
