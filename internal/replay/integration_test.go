package replay_test

import (
	"math/rand"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/replay"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// TestReplayAttackEndToEnd walks the full §7 scenario: a legitimate node
// sends marked reports; a mole on the path records them; later the mole
// re-injects the recorded messages to frame the legitimate sender. Without
// defenses the sink accepts the stale marks; duplicate suppression and
// one-time sequence windows both shut the attack down.
func TestReplayAttackEndToEnd(t *testing.T) {
	const n = 8
	topo, err := topology.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	keys := mac.NewKeyStore([]byte("replay-e2e"))
	scheme := marking.Nested{}
	verifier, err := sink.NewVerifier(scheme, keys, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))

	// Phase 1: the legitimate node 8 sends 20 genuine reports; the mole
	// at node 4 records everything it forwards.
	recorder := &mole.Replayer{}
	var genuine []packet.Message
	for seq := uint32(1); seq <= 20; seq++ {
		msg := packet.Message{Report: packet.Report{
			Event: 0x600D, Location: 8, Timestamp: uint64(seq), Seq: seq,
		}}
		for _, hop := range topo.Forwarders(8) {
			msg = scheme.Mark(hop, keys.Key(hop), msg, rng)
			if hop == 4 {
				recorder.Capture(msg)
			}
		}
		genuine = append(genuine, msg)
	}
	if recorder.Captured() != 20 {
		t.Fatalf("captured = %d", recorder.Captured())
	}

	// Phase 2a: without defenses, a replayed message verifies perfectly —
	// the sink would trace it to the innocent node 7 neighborhood.
	captured, _ := recorder.Next()
	// The mole re-injects from node 4: downstream nodes 3..1 re-mark.
	replayed := captured.Clone()
	for _, hop := range []packet.NodeID{3, 2, 1} {
		replayed = scheme.Mark(hop, keys.Key(hop), replayed, rng)
	}
	res := verifier.Verify(replayed, 0)
	if res.Stopped {
		t.Fatal("replayed message should verify without defenses")
	}
	if res.Chain[0] != 7 {
		t.Fatalf("replay frames %v, expected the innocent V7", res.Chain[0])
	}

	// Phase 2b: duplicate suppression at the mole's next hop (node 3)
	// drops the replay — node 3 already forwarded this report.
	sup := replay.NewSuppressor(64)
	for _, g := range genuine {
		sup.Duplicate(g.Report) // node 3 saw the genuine pass
	}
	again, _ := recorder.Next()
	if !sup.Duplicate(again.Report) {
		t.Fatal("duplicate suppression missed the replay")
	}

	// Phase 2c: even if suppression's bounded cache has evicted the
	// report, the sink's one-time sequence window rejects it.
	win := replay.NewSeqWindow(1024)
	for _, g := range genuine {
		if !win.Accept(packet.NodeID(g.Report.Location), g.Report.Seq) {
			t.Fatal("genuine report rejected")
		}
	}
	third, _ := recorder.Next()
	if win.Accept(packet.NodeID(third.Report.Location), third.Report.Seq) {
		t.Fatal("sequence window accepted a replayed report")
	}
}
