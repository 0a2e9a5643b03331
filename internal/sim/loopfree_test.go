package sim

import (
	"math"
	"math/rand"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// TestTopologyResolverLoopFreeProperty: in a static epoch the topology
// resolver accepts a hinted mark only from the routing subtree of the
// next verified marker downstream, so every accepted chain is a strict
// root path and the order can never hold an identity-swapping loop,
// whatever the colluders do. Random geometric fields host a swapping
// source and two colluding forwarders per strategy, each marking under a
// colluder's key (on the path or off it); every packet's chain is
// checked, every final verdict must be loop-free, and an identified one
// must be one-hop precise. The same streams under the exhaustive
// resolver must form loops in some field, or the strategies never
// reached the loop branch and the property would hold vacuously.
func TestTopologyResolverLoopFreeProperty(t *testing.T) {
	strategies := []struct {
		name      string
		forwarder func(id, partner packet.NodeID) *mole.Forwarder
	}{
		{"swap", func(id, partner packet.NodeID) *mole.Forwarder {
			return &mole.Forwarder{ID: id, Behavior: mole.MarkSwap, SwapPartner: partner}
		}},
		{"insert-colluder", func(id, partner packet.NodeID) *mole.Forwarder {
			return &mole.Forwarder{ID: id, Behavior: mole.MarkSwap, SwapPartner: partner, SwapProb: 1}
		}},
		{"reorder", func(id, partner packet.NodeID) *mole.Forwarder {
			return &mole.Forwarder{ID: id, Behavior: mole.MarkSwap, SwapPartner: partner,
				Tampers: []mole.Tamper{mole.Reorder{}}}
		}},
		{"remove", func(id, partner packet.NodeID) *mole.Forwarder {
			return &mole.Forwarder{ID: id, Behavior: mole.MarkSwap, SwapPartner: partner,
				Tampers: []mole.Tamper{mole.RemoveFirst{N: 1}}}
		}},
	}
	const (
		fields  = 12
		nodes   = 60
		packets = 80
	)
	exhaustiveLoops, identified := 0, 0
	for f := int64(1); f <= fields; f++ {
		degree := math.Log(nodes) + 5
		topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
			Nodes: nodes, Side: math.Sqrt(nodes * math.Pi / degree), RadioRange: 1,
			SinkAtCorner: true, Seed: f,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(f))
		src := topo.DeepestNode()
		fwd := topo.Forwarders(src)
		if len(fwd) < 4 {
			t.Fatalf("field %d: path of %d forwarders is too short", f, len(fwd))
		}
		// Two colluding forwarders on the path and one colluder off it.
		a := fwd[rng.Intn(len(fwd)/2)]
		b := fwd[len(fwd)/2+rng.Intn(len(fwd)-len(fwd)/2)]
		off := offPath(topo, src, rng)
		partners := []packet.NodeID{src, a, b, off}
		scheme := marking.PNM{P: 3 / float64(len(fwd))}
		keys := mac.NewKeyStore([]byte("loop-free"))
		stolen := map[packet.NodeID]mac.Key{}
		for _, id := range partners {
			stolen[id] = keys.Key(id)
		}
		for _, st := range strategies {
			env := &mole.Env{Scheme: scheme, StolenKeys: stolen}
			net := &Net{Topo: topo, Keys: keys, Scheme: scheme, Env: env, Moles: map[packet.NodeID]*mole.Forwarder{
				a: st.forwarder(a, partners[rng.Intn(len(partners))]),
				b: st.forwarder(b, partners[rng.Intn(len(partners))]),
			}}
			tracker, err := net.NewTracker()
			if err != nil {
				t.Fatal(err)
			}
			base, err := sink.NewVerifier(scheme, keys, topo.NumNodes(), sink.NewExhaustiveResolver(keys, topo.Nodes()))
			if err != nil {
				t.Fatal(err)
			}
			exhaustive := sink.NewTracker(base, topo)
			source := &mole.Source{ID: src, Base: packet.Report{Event: 0xBAD, Location: uint32(src)},
				Behavior: mole.MarkSwap, SwapPartner: partners[rng.Intn(len(partners))]}
			for p := 0; p < packets; p++ {
				msg, ok := net.Deliver(src, source.Next(env, rng), rng)
				if !ok {
					continue
				}
				res := tracker.Observe(msg, 0)
				for i := 0; i+1 < len(res.Chain); i++ {
					if !strictlyBelow(topo, res.Chain[i], res.Chain[i+1]) {
						t.Fatalf("field %d %s: chain %v: %v is not below %v in the routing tree",
							f, st.name, res.Chain, res.Chain[i], res.Chain[i+1])
					}
				}
				exhaustive.Observe(msg, 0)
			}
			v := tracker.Verdict()
			if len(v.Loop) != 0 {
				t.Fatalf("field %d %s: loop %v under the topology resolver", f, st.name, v.Loop)
			}
			if !v.HasStop || (v.Identified && !v.SuspectsContain(partners...)) {
				t.Fatalf("field %d %s: verdict %+v localizes none of the colluders %v", f, st.name, v, partners)
			}
			if v.Identified {
				identified++
			}
			if len(exhaustive.Verdict().Loop) > 0 {
				exhaustiveLoops++
			}
		}
	}
	if exhaustiveLoops == 0 || identified == 0 {
		t.Fatalf("%d exhaustive loops, %d identified verdicts: the strategies never reached the loop branch or the precision check",
			exhaustiveLoops, identified)
	}
}

// offPath returns a random node that is neither src nor one of its
// forwarders.
func offPath(topo *topology.Network, src packet.NodeID, rng *rand.Rand) packet.NodeID {
	on := map[packet.NodeID]bool{}
	for _, id := range topo.PathToSink(src) {
		on[id] = true
	}
	for {
		if id := packet.NodeID(1 + rng.Intn(topo.NumNodes())); !on[id] {
			return id
		}
	}
}

// strictlyBelow reports whether u lies in v's routing subtree, u != v.
func strictlyBelow(topo *topology.Network, u, v packet.NodeID) bool {
	for x := u; x != packet.SinkID; {
		x = topo.Parent(x)
		if x == v {
			return true
		}
	}
	return false
}
