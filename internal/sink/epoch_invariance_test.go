package sink

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// TestOrderEpochInterleavingInvariance: an Order fed forwarding chains
// harvested from several mobility epochs converges to the same state no
// matter how the epochs' chains are interleaved. The order matrix is a
// pure function of the direct-relation set, so traffic arriving out of
// epoch order (reordered batches, shard merges) cannot change the
// verdict.
func TestOrderEpochInterleavingInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, err := topology.NewWaypoint(topology.WaypointConfig{
			Nodes: 24, Side: 5, RadioRange: 2,
			MinSpeed: 0.2, MaxSpeed: 0.8, Pause: 1,
			SinkAtCorner: true, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var chains [][]packet.NodeID
		net := w.Network()
		for e := 0; e < 4; e++ {
			for _, id := range net.Nodes() {
				if net.Depth(id) >= 2 && rng.Intn(3) == 0 {
					chains = append(chains, append([]packet.NodeID(nil), net.Forwarders(id)...))
				}
			}
			if net, err = w.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if len(chains) < 2 {
			return true
		}
		ref := NewOrder()
		for _, c := range chains {
			ref.AddChain(c)
		}
		perm := NewOrder()
		for _, i := range rng.Perm(len(chains)) {
			perm.AddChain(chains[i])
		}
		return orderDigest(perm) == orderDigest(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// epochScenario builds a base field plus churned epochs (Rewire keeps
// every node routed, so any node can source under any epoch), then marks
// a multi-source stream where packet p travels — and is tagged — under
// epoch p mod len(epochs).
func epochScenario(t *testing.T, seed int64, nodes, sources, packets, numEpochs int) (
	base *topology.Network, set *topology.EpochSet, factory func() Verifier,
	stream []packet.Message, epochs []topology.EpochVersion,
) {
	t.Helper()
	base, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: nodes, Side: 5, RadioRange: 1.6, Seed: seed, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	set = topology.NewEpochSet(base)
	nets := []*topology.Network{base}
	for e := 1; e < numEpochs; e++ {
		next := nets[e-1].Rewire(seed + int64(e)*101)
		set.Advance(next)
		nets = append(nets, next)
	}

	scheme := marking.PNM{P: 0.5}
	rng := rand.New(rand.NewSource(seed))
	var srcs []packet.NodeID
	for _, id := range base.Nodes() {
		if base.Depth(id) >= 2 {
			srcs = append(srcs, id)
		}
		if len(srcs) == sources {
			break
		}
	}
	if len(srcs) == 0 {
		srcs = append(srcs, base.DeepestNode())
	}

	env := &mole.Env{Scheme: scheme}
	for p := 0; p < packets; p++ {
		origin := srcs[p%len(srcs)]
		net := nets[p%len(nets)]
		src := &mole.Source{
			ID:       origin,
			Base:     packet.Report{Event: uint32(p % len(srcs)), Location: uint32(origin)},
			Behavior: mole.MarkNever,
		}
		msg := src.Next(env, rng)
		for _, hop := range net.Forwarders(origin) {
			msg = scheme.Mark(hop, testKS.Key(hop), msg, rng)
		}
		stream = append(stream, msg)
		epochs = append(epochs, topology.EpochVersion(p%len(nets)))
	}
	factory = func() Verifier {
		v, err := NewVerifier(scheme, testKS, base.NumNodes(), NewTopologyResolverEpochs(testKS, set))
		if err != nil {
			t.Fatalf("verifier: %v", err)
		}
		return v
	}
	return base, set, factory, stream, epochs
}

// TestPipelineEpochTaggedDeterminism extends the pipeline's determinism
// contract to epoch-tagged traffic: a stream whose packets traveled under
// four different routing epochs produces byte-identical per-packet
// results and verdicts whether observed serially (ObserveAt) or through a
// 1-, 2- or 4-worker pipeline (Observe with per-slot epochs), with no
// honest chain reported stopped.
func TestPipelineEpochTaggedDeterminism(t *testing.T) {
	base, _, factory, stream, epochs := epochScenario(t, 424, 30, 4, 80, 4)

	tracker := NewTracker(factory(), base)
	baseResults := make([]Result, 0, len(stream))
	for i, msg := range stream {
		res := tracker.ObserveAt(msg, epochs[i])
		if res.Stopped {
			t.Fatalf("packet %d (epoch %d) wrongly stopped: %+v", i, epochs[i], res)
		}
		baseResults = append(baseResults, Result{
			Stopped: res.Stopped,
			Chain:   append([]packet.NodeID(nil), res.Chain...),
		})
	}
	baseVerdict := tracker.Verdict()

	for _, workers := range []int{1, 2, 4} {
		pipe := NewPipeline(workers, factory, NewTracker(factory(), base))
		for lo := 0; lo < len(stream); lo += 16 {
			hi := min(lo+16, len(stream))
			for j, r := range pipe.Observe(stream[lo:hi], epochs[lo:hi]) {
				want := baseResults[lo+j]
				if r.Stopped != want.Stopped || !reflect.DeepEqual(r.Chain, want.Chain) {
					t.Fatalf("workers=%d packet %d: result %+v, want %+v", workers, lo+j, r, want)
				}
			}
		}
		if v := pipe.Tracker().Verdict(); !reflect.DeepEqual(v, baseVerdict) {
			t.Errorf("workers=%d: verdict %+v, want %+v", workers, v, baseVerdict)
		}
		pipe.Close()
	}
}
