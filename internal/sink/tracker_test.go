package sink

import (
	"math/rand"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// chainEnv builds an n-node chain topology, a PNM tracker over it, and the
// forwarding path for a source at the deepest node.
func chainEnv(t *testing.T, n int, scheme marking.Scheme) (*topology.Network, *Tracker, []packet.NodeID) {
	t.Helper()
	topo, err := topology.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	resolver := NewExhaustiveResolver(testKS, topo.Nodes())
	v, err := NewVerifier(scheme, testKS, n, resolver)
	if err != nil {
		t.Fatal(err)
	}
	// Source sits at the deepest node n; forwarders are n-1 .. 1.
	return topo, NewTracker(v, topo), topo.Forwarders(packet.NodeID(n))
}

func TestTrackerIdentifiesSourceWithPNM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 11 // source at V11, 10 forwarders
	_, tracker, fwd := chainEnv(t, n, marking.PNM{P: 0.3})

	src := &mole.Source{ID: n, Base: packet.Report{Event: 0xAA}, Behavior: mole.MarkNever}
	menv := &mole.Env{Scheme: marking.PNM{P: 0.3}}
	for i := 0; i < 200; i++ {
		msg := src.Next(menv, rng)
		for _, id := range fwd {
			msg = marking.PNM{P: 0.3}.Mark(id, testKS.Key(id), msg, rng)
		}
		tracker.Observe(msg, 0)
	}
	v := tracker.Verdict()
	if !v.Identified {
		t.Fatalf("source not identified after 200 packets: %+v", v)
	}
	// The most upstream forwarder is V10; the source mole V11 is its
	// one-hop neighbor.
	if v.Stop != n-1 {
		t.Fatalf("Stop = %v, want V%d", v.Stop, n-1)
	}
	if !v.SuspectsContain(n) {
		t.Fatalf("suspects %v do not contain the source mole V%d", v.Suspects, n)
	}
}

func TestTrackerEmptyVerdict(t *testing.T) {
	_, tracker, _ := chainEnv(t, 5, marking.PNM{P: 0.3})
	v := tracker.Verdict()
	if v.HasStop || v.Identified {
		t.Fatalf("verdict on empty tracker = %+v", v)
	}
}

func TestTrackerLoopVerdict(t *testing.T) {
	// Identity swapping between source V8 and forwarding mole V5 on an
	// 8-node chain: the sink must still localize a mole at the loop-line
	// intersection.
	rng := rand.New(rand.NewSource(2))
	const n = 8
	scheme := marking.PNM{P: 0.5}
	topo, tracker, fwd := chainEnv(t, n, scheme)

	env := &mole.Env{
		Scheme: scheme,
		StolenKeys: map[packet.NodeID]mac.Key{
			5: testKS.Key(5),
			8: testKS.Key(8),
		},
	}
	src := &mole.Source{ID: 8, Base: packet.Report{Event: 0xBB}, Behavior: mole.MarkSwap, SwapPartner: 5}
	fmole := &mole.Forwarder{ID: 5, Behavior: mole.MarkSwap, SwapPartner: 8}

	for i := 0; i < 400; i++ {
		msg := src.Next(env, rng)
		for _, id := range fwd {
			if id == 5 {
				var ok bool
				msg, ok = fmole.Process(msg, env, rng)
				if !ok {
					break
				}
				continue
			}
			msg = scheme.Mark(id, testKS.Key(id), msg, rng)
		}
		tracker.Observe(msg, 0)
	}

	v := tracker.Verdict()
	if len(v.Loop) == 0 {
		t.Fatalf("identity swapping left no loop: %+v", v)
	}
	if !v.HasStop {
		t.Fatal("no stop node despite loop")
	}
	// The verdict must localize a mole (V5 or V8) within one hop.
	if !v.SuspectsContain(5, 8) {
		t.Fatalf("suspects %v contain no mole (stop %v, loop %v)", v.Suspects, v.Stop, v.Loop)
	}
	if v.Identified {
		t.Fatal("loop run must not claim unequivocal identification")
	}
	_ = topo
}

func TestTraceSinglePacketNested(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 8
	topo, err := topology.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(marking.Nested{}, testKS, n, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Source V8 injects without marking; all forwarders mark.
	msg := packet.Message{Report: testReport(50)}
	for _, id := range topo.Forwarders(n) {
		msg = marking.Nested{}.Mark(id, testKS.Key(id), msg, rng)
	}
	verdict := TraceSinglePacket(v, topo, msg)
	if !verdict.HasStop || verdict.Stop != n-1 {
		t.Fatalf("verdict = %+v, want stop at V%d", verdict, n-1)
	}
	if !verdict.SuspectsContain(n) {
		t.Fatalf("suspects %v do not contain the source", verdict.Suspects)
	}
	if !verdict.Identified {
		t.Fatal("clean single-packet trace should be complete")
	}
}

func TestTraceSinglePacketNoMarks(t *testing.T) {
	v, err := NewVerifier(marking.Nested{}, testKS, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	verdict := TraceSinglePacket(v, nil, packet.Message{Report: testReport(60)})
	if verdict.HasStop {
		t.Fatalf("verdict = %+v, want no stop", verdict)
	}
}

func TestVerdictSuspectsContain(t *testing.T) {
	v := Verdict{Suspects: []packet.NodeID{3, 4, 5}}
	if !v.SuspectsContain(4) {
		t.Fatal("want true for present mole")
	}
	if v.SuspectsContain(9) {
		t.Fatal("want false for absent mole")
	}
	if v.SuspectsContain() {
		t.Fatal("want false for no moles")
	}
}

func TestTrackerWithoutTopologySuspectsStopOnly(t *testing.T) {
	v, err := NewVerifier(marking.Nested{}, testKS, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	tracker := NewTracker(v, nil)
	rng := rand.New(rand.NewSource(4))
	msg := packet.Message{Report: testReport(70)}
	for _, id := range []packet.NodeID{3, 2, 1} {
		msg = marking.Nested{}.Mark(id, testKS.Key(id), msg, rng)
	}
	tracker.Observe(msg, 0)
	verdict := tracker.Verdict()
	if len(verdict.Suspects) != 1 || verdict.Suspects[0] != 3 {
		t.Fatalf("suspects = %v, want [V3]", verdict.Suspects)
	}
	if tracker.Packets() != 1 {
		t.Fatalf("Packets = %d, want 1", tracker.Packets())
	}
}
