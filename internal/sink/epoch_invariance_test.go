package sink

import (
	"math/rand"
	"testing"
	"testing/quick"

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
