package pnm

import (
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// Core identity and wire types.
type (
	// NodeID identifies a sensor node; the sink is node 0.
	NodeID = packet.NodeID
	// Report is one sensing report M = E|L|T (plus a sequence number).
	Report = packet.Report
	// Mark is one per-hop mark.
	Mark = packet.Mark
	// Message is a report plus accumulated marks.
	Message = packet.Message
)

// SinkID is the sink's well-known node ID.
const SinkID = packet.SinkID

// Topology and keying.
type (
	// Topology is a static sensor field with a routing tree to the sink.
	Topology = topology.Network
	// GridConfig parameterizes NewGrid.
	GridConfig = topology.GridConfig
	// GeometricConfig parameterizes NewRandomGeometric.
	GeometricConfig = topology.GeometricConfig
	// KeyStore derives the per-node keys shared with the sink.
	KeyStore = mac.KeyStore
	// Key is a node's symmetric key.
	Key = mac.Key
)

// NewChain builds a linear network of n nodes; node 1 is sink-adjacent.
func NewChain(n int) (*Topology, error) { return topology.NewChain(n) }

// NewGrid builds a grid network with the sink at a corner.
func NewGrid(cfg GridConfig) (*Topology, error) { return topology.NewGrid(cfg) }

// NewRandomGeometric builds a random geometric network.
func NewRandomGeometric(cfg GeometricConfig) (*Topology, error) {
	return topology.NewRandomGeometric(cfg)
}

// NewKeyStore derives all node keys from a master secret.
func NewKeyStore(master []byte) *KeyStore { return mac.NewKeyStore(master) }

// Scheme is a per-hop marking behaviour.
type Scheme = marking.Scheme

// PNMScheme returns Probabilistic Nested Marking with per-node marking
// probability p — the paper's contribution. Pick p = 3/n for the paper's
// three marks per packet on an n-hop path.
func PNMScheme(p float64) Scheme { return marking.PNM{P: p} }

// NestedScheme returns basic (deterministic) nested marking, which traces
// a mole with a single packet at the cost of one mark per hop.
func NestedScheme() Scheme { return marking.Nested{} }

// NaiveScheme returns the paper's "incorrect extension": probabilistic
// nested marking with plaintext IDs, broken by selective dropping.
func NaiveScheme(p float64) Scheme { return marking.NaiveProbNested{P: p} }

// AMSScheme returns the extended Authenticated Marking Scheme baseline.
func AMSScheme(p float64) Scheme { return marking.AMS{P: p} }

// PPMScheme returns unauthenticated probabilistic packet marking.
func PPMScheme(p float64) Scheme { return marking.PPM{P: p} }

// SchemeByName resolves a scheme name ("pnm", "nested", "naive", "ams",
// "ppm", "none") with marking probability p, which must lie in [0, 1].
func SchemeByName(name string, p float64) (Scheme, error) { return marking.New(name, p) }

// MarkingProbability returns the p that yields the given average marks per
// packet on an n-hop path (the paper fixes marks = 3).
func MarkingProbability(n int, marks float64) float64 {
	if n <= 0 {
		return 0
	}
	p := marks / float64(n)
	if p > 1 {
		return 1
	}
	return p
}

// Adversary types.
type (
	// SourceMole injects bogus reports.
	SourceMole = mole.Source
	// ForwarderMole is a colluding mole on the forwarding path.
	ForwarderMole = mole.Forwarder
	// Tamper is one mark-manipulation primitive.
	Tamper = mole.Tamper
	// AdversaryEnv is the moles' shared knowledge.
	AdversaryEnv = mole.Env
	// MarkBehavior selects how a mole marks.
	MarkBehavior = mole.MarkBehavior
)

// Mole marking behaviours.
const (
	// MarkNever leaves no mark.
	MarkNever = mole.MarkNever
	// MarkHonest marks like a legitimate node.
	MarkHonest = mole.MarkHonest
	// MarkSwap swaps identities with a colluding partner.
	MarkSwap = mole.MarkSwap
)

// Sink-side types.
type (
	// Verdict is the sink's traceback conclusion.
	Verdict = sink.Verdict
	// Tracker accumulates packets into a route reconstruction.
	Tracker = sink.Tracker
	// Verifier checks one packet's marks.
	Verifier = sink.Verifier
	// Resolver maps anonymous mark IDs back to node IDs.
	Resolver = sink.Resolver
)

// NewExhaustiveResolver returns the paper's base anonymous-ID resolution:
// a per-report table over all node IDs.
func NewExhaustiveResolver(keys *KeyStore, nodes []NodeID) Resolver {
	return sink.NewExhaustiveResolver(keys, nodes)
}

// NewTopologyResolver returns the §7 topology-restricted resolution: it
// searches the routing subtree upstream of the previously verified node
// instead of hashing the whole network.
func NewTopologyResolver(keys *KeyStore, topo *Topology) Resolver {
	return sink.NewTopologyResolver(keys, topo)
}

// NewVerifier builds the mark verifier matching a scheme.
func NewVerifier(s Scheme, keys *KeyStore, numNodes int, r Resolver) (Verifier, error) {
	return sink.NewVerifier(s, keys, numNodes, r)
}

// NewTracker builds a traceback tracker; topo enables one-hop-neighborhood
// suspect sets and may be nil.
func NewTracker(v Verifier, topo *Topology) *Tracker { return sink.NewTracker(v, topo) }

// TraceSinglePacket runs basic nested-marking traceback on one packet.
func TraceSinglePacket(v Verifier, topo *Topology, msg Message) Verdict {
	return sink.TraceSinglePacket(v, topo, msg)
}
