package sim

import (
	"math/rand"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

func buildNet(t *testing.T, n int, scheme marking.Scheme) *Net {
	t.Helper()
	topo, err := topology.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	keys := mac.NewKeyStore([]byte("deliver-test"))
	return &Net{
		Topo:   topo,
		Keys:   keys,
		Scheme: scheme,
		Moles:  map[packet.NodeID]*mole.Forwarder{},
		Env:    &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{}},
	}
}

func TestDeliverMarksEveryHop(t *testing.T) {
	net := buildNet(t, 6, marking.Nested{})
	rng := rand.New(rand.NewSource(1))
	out, ok := net.Deliver(6, packet.Message{Report: packet.Report{Seq: 1}}, rng)
	if !ok {
		t.Fatal("delivery failed")
	}
	// Five forwarders (5..1) each leave a mark.
	if len(out.Marks) != 5 {
		t.Fatalf("marks = %d, want 5", len(out.Marks))
	}
	if out.Marks[0].ID != 5 || out.Marks[4].ID != 1 {
		t.Fatalf("mark order wrong: %+v", out.Marks)
	}
}

func TestDeliverMolesIntercept(t *testing.T) {
	net := buildNet(t, 6, marking.Nested{})
	net.Moles[3] = &mole.Forwarder{ID: 3, Behavior: mole.MarkNever, Tampers: []mole.Tamper{mole.RemoveAll{}}}
	rng := rand.New(rand.NewSource(2))
	out, ok := net.Deliver(6, packet.Message{Report: packet.Report{Seq: 2}}, rng)
	if !ok {
		t.Fatal("delivery failed")
	}
	// Marks from 5 and 4 removed by the mole at 3; marks from 2 and 1
	// added after it.
	if len(out.Marks) != 2 || out.Marks[0].ID != 2 {
		t.Fatalf("marks = %+v", out.Marks)
	}
}

func TestDeliverDropPolicy(t *testing.T) {
	net := buildNet(t, 6, marking.Nested{})
	net.Drop = func(prev, hop packet.NodeID) bool { return prev == 6 }
	rng := rand.New(rand.NewSource(3))
	if _, ok := net.Deliver(6, packet.Message{}, rng); ok {
		t.Fatal("drop policy ignored")
	}
	// Traffic from node 5 is unaffected.
	if _, ok := net.Deliver(5, packet.Message{}, rng); !ok {
		t.Fatal("unrelated traffic dropped")
	}
}

func TestDeliverDropPolicyDoesNotBindMoles(t *testing.T) {
	// Colluding moles ignore quarantine policies.
	net := buildNet(t, 6, marking.Nested{})
	net.Moles[5] = &mole.Forwarder{ID: 5, Behavior: mole.MarkHonest}
	net.Env.StolenKeys[5] = net.Keys.Key(5)
	net.Drop = func(prev, hop packet.NodeID) bool { return prev == 6 && hop == 5 }
	rng := rand.New(rand.NewSource(4))
	if _, ok := net.Deliver(6, packet.Message{}, rng); !ok {
		t.Fatal("mole honored the drop policy")
	}
}

func TestNetNewTracker(t *testing.T) {
	net := buildNet(t, 6, marking.PNM{P: 0.5})
	tracker, err := net.NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		msg, ok := net.Deliver(6, packet.Message{Report: packet.Report{Seq: uint32(i)}}, rng)
		if ok {
			tracker.Observe(msg, 0)
		}
	}
	v := tracker.Verdict()
	if !v.HasStop || v.Stop != 5 {
		t.Fatalf("verdict = %+v, want stop V5", v)
	}
}

func TestRunnerNetMatchesScenario(t *testing.T) {
	r, err := NewChainRunner(ChainConfig{
		Forwarders: 6, Scheme: marking.Nested{}, Attack: AttackNoMark, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := r.Net()
	if net != r.Net() {
		t.Fatal("Net is not the runner's own bundle")
	}
	if net.Topo != r.Topology() || net.Keys != r.Keys() {
		t.Fatal("Net does not share the runner's substrate")
	}
	if net.Moles[r.MoleID()] == nil {
		t.Fatal("Net is missing the forwarding mole")
	}
	// Step delivers through that same Net, so its Drop policy binds.
	net.Drop = func(prev, hop packet.NodeID) bool { return true }
	if _, ok := r.Step(); ok || r.Delivered() != 0 || r.Offered() != 1 {
		t.Fatalf("Step ignored the Net's drop policy: delivered %d of %d", r.Delivered(), r.Offered())
	}
}

func TestTrackerCandidatesMultiSource(t *testing.T) {
	// Two sources on one chain? Use a grid so branches differ.
	topo, err := topology.NewGrid(topology.GridConfig{Width: 5, Height: 5, Spacing: 1, RadioRange: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	keys := mac.NewKeyStore([]byte("deliver-test"))
	scheme := marking.PNM{P: 0.5}
	net := &Net{
		Topo: topo, Keys: keys, Scheme: scheme,
		Moles: map[packet.NodeID]*mole.Forwarder{},
		Env:   &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{}},
	}
	tracker, err := net.NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	// Sources at the two far corners (grid index: sink at 0; node 4 = end
	// of row 0's neighbor row... pick by position).
	var srcs []packet.NodeID
	for _, id := range topo.Nodes() {
		p := topo.Position(id)
		if (p.X == 4 && p.Y == 0) || (p.X == 0 && p.Y == 4) {
			srcs = append(srcs, id)
		}
	}
	if len(srcs) != 2 {
		t.Fatalf("sources = %v", srcs)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		for _, s := range srcs {
			msg, ok := net.Deliver(s, packet.Message{Report: packet.Report{Location: uint32(s), Seq: uint32(i)}}, rng)
			if ok {
				tracker.Observe(msg, 0)
			}
		}
	}
	cands := tracker.Candidates()
	// Each branch contributes its most upstream forwarder as a candidate.
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want 2 (one per branch)", cands)
	}
	for _, c := range cands {
		near := false
		for _, s := range srcs {
			if topo.AreNeighbors(c, s) || c == s {
				near = true
			}
		}
		if !near {
			t.Fatalf("candidate %v is not adjacent to any source (%v)", c, srcs)
		}
	}
}
