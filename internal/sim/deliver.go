package sim

import (
	"math/rand"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// Net bundles the pieces every delivery shares: the topology, the key
// store, the deployed marking scheme, the forwarding moles by position, and
// the moles' knowledge.
type Net struct {
	// Topo is the routing substrate.
	Topo *topology.Network
	// Keys is the key store shared by legitimate nodes and the sink.
	Keys *mac.KeyStore
	// Scheme is the deployed marking scheme.
	Scheme marking.Scheme
	// Moles maps node IDs to forwarding-mole behaviours; nil entries and
	// absent IDs behave legitimately.
	Moles map[packet.NodeID]*mole.Forwarder
	// Env is the moles' shared knowledge (scheme + stolen keys).
	Env *mole.Env
	// Drop, when non-nil, lets a legitimate forwarder refuse a packet:
	// it is called per hop with the previous hop and the forwarder, and a
	// true return drops the packet (used by isolation and en-route
	// filtering). Moles ignore it.
	Drop func(prev, hop packet.NodeID) bool
}

// Deliver forwards msg from src along the routing tree to the sink,
// marking at every legitimate hop and applying mole behaviour at
// compromised hops. It returns the message as received by the sink and
// whether it arrived at all. Legitimate stretches of the path use the
// incremental encoder, which appends each mark to one encoded prefix
// instead of cloning and re-encoding the message at every hop; each
// nested MAC still hashes the whole prefix, O(path²) bytes per path.
func (n *Net) Deliver(src packet.NodeID, msg packet.Message, rng *rand.Rand) (packet.Message, bool) {
	prev := src
	inc := marking.Resume(msg)
	for _, hop := range n.Topo.Forwarders(src) {
		if fm := n.Moles[hop]; fm != nil {
			out, ok := fm.Process(inc.Message(), n.Env, rng)
			if !ok {
				return packet.Message{}, false
			}
			inc = marking.Resume(out) // the tamper invalidated the prefix
		} else {
			if n.Drop != nil && n.Drop(prev, hop) {
				return packet.Message{}, false
			}
			inc.Apply(n.Scheme, hop, n.Keys.Key(hop), rng)
		}
		prev = hop
	}
	return inc.Message(), true
}

// NewTracker builds a sink tracker for this network, choosing the verifier
// from the scheme. Anonymous IDs resolve through the §7 topology search.
func (n *Net) NewTracker() (*sink.Tracker, error) {
	resolver := sink.NewTopologyResolver(n.Keys, n.Topo)
	verifier, err := sink.NewVerifier(n.Scheme, n.Keys, n.Topo.NumNodes(), resolver)
	if err != nil {
		return nil, err
	}
	return sink.NewTracker(verifier, n.Topo), nil
}
