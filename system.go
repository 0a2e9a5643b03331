package pnm

import (
	"errors"
	"fmt"
	"math/rand"

	"pnm/internal/energy"
	"pnm/internal/filter"
	"pnm/internal/isolation"
	"pnm/internal/mac"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/sim"
)

// System couples a topology, a key store and a marking scheme into a
// deployable network: the object most applications start from.
type System struct {
	topo   *Topology
	keys   *KeyStore
	scheme Scheme

	// UseTopologyResolver switches the sink to the O(d) anonymous-ID
	// search of the paper's §7 (requires the sink to know the topology).
	UseTopologyResolver bool
}

// NewSystem validates and assembles a system.
func NewSystem(topo *Topology, keys *KeyStore, scheme Scheme) (*System, error) {
	if topo == nil || keys == nil || scheme == nil {
		return nil, errors.New("pnm: topology, keys and scheme are all required")
	}
	return &System{topo: topo, keys: keys, scheme: scheme}, nil
}

// Topology returns the network substrate.
func (s *System) Topology() *Topology { return s.topo }

// Keys returns the key store.
func (s *System) Keys() *KeyStore { return s.keys }

// Scheme returns the deployed marking scheme.
func (s *System) Scheme() Scheme { return s.scheme }

// NewSink builds a verifier and tracker for this system.
func (s *System) NewSink() (*Tracker, error) {
	var r Resolver
	if s.UseTopologyResolver {
		r = NewTopologyResolver(s.keys, s.topo)
	} else {
		r = NewExhaustiveResolver(s.keys, s.topo.Nodes())
	}
	v, err := NewVerifier(s.scheme, s.keys, s.topo.NumNodes(), r)
	if err != nil {
		return nil, err
	}
	return NewTracker(v, s.topo), nil
}

// net builds the internal delivery bundle.
func (s *System) net(moles map[NodeID]*ForwarderMole, env *AdversaryEnv) *sim.Net {
	if env == nil {
		env = &mole.Env{Scheme: s.scheme, StolenKeys: map[packet.NodeID]mac.Key{}}
	}
	if moles == nil {
		moles = map[NodeID]*ForwarderMole{}
	}
	return &sim.Net{Topo: s.topo, Keys: s.keys, Scheme: s.scheme, Moles: moles, Env: env}
}

// TraceConfig describes one injection-and-traceback run.
type TraceConfig struct {
	// Source is the injecting mole's node ID.
	Source NodeID
	// Packets is how many bogus reports the source injects.
	Packets int
	// Seed drives all randomness.
	Seed int64
	// Forwarder optionally places a colluding mole on the path.
	Forwarder *ForwarderMole
	// SourceBehavior selects the source's marking conduct (default
	// MarkNever: the mole hides).
	SourceBehavior MarkBehavior
}

// TraceInjection runs a complete scenario: the source mole injects
// Packets bogus reports, the network forwards (and any colluding mole
// tampers), the sink verifies and reconstructs, and the final verdict is
// returned.
func (s *System) TraceInjection(cfg TraceConfig) (Verdict, error) {
	if cfg.Source == SinkID || int(cfg.Source) > s.topo.NumNodes() {
		return Verdict{}, fmt.Errorf("pnm: source %v is not a sensor node", cfg.Source)
	}
	if cfg.Packets < 1 {
		return Verdict{}, fmt.Errorf("pnm: need at least 1 packet, got %d", cfg.Packets)
	}
	behavior := cfg.SourceBehavior
	if behavior == 0 {
		behavior = MarkNever
	}
	stolen := map[packet.NodeID]mac.Key{cfg.Source: s.keys.Key(cfg.Source)}
	moles := map[NodeID]*ForwarderMole{}
	if cfg.Forwarder != nil {
		moles[cfg.Forwarder.ID] = cfg.Forwarder
		stolen[cfg.Forwarder.ID] = s.keys.Key(cfg.Forwarder.ID)
	}
	env := &mole.Env{Scheme: s.scheme, StolenKeys: stolen}
	net := s.net(moles, env)

	tracker, err := net.NewTracker(s.UseTopologyResolver)
	if err != nil {
		return Verdict{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	src := &mole.Source{
		ID:       cfg.Source,
		Base:     packet.Report{Event: 0xBAD, Location: uint32(cfg.Source)},
		Behavior: behavior,
	}
	for i := 0; i < cfg.Packets; i++ {
		msg := src.Next(env, rng)
		if out, ok := net.Deliver(cfg.Source, msg, rng); ok {
			tracker.Observe(out, 0)
		}
	}
	return tracker.Verdict(), nil
}

// Isolation and fight-back.
type (
	// Quarantine tracks blacklisted neighborhoods.
	Quarantine = isolation.Manager
	// Campaign iteratively catches and quarantines multiple moles.
	Campaign = isolation.Campaign
)

// NewCampaign builds an iterative catch-and-quarantine hunt against the
// given source moles on this system.
func (s *System) NewCampaign(sources []*SourceMole, moles map[NodeID]*ForwarderMole, seed int64) *Campaign {
	stolen := map[packet.NodeID]mac.Key{}
	for _, src := range sources {
		stolen[src.ID] = s.keys.Key(src.ID)
	}
	for id := range moles {
		stolen[id] = s.keys.Key(id)
	}
	env := &mole.Env{Scheme: s.scheme, StolenKeys: stolen}
	c := isolation.NewCampaign(s.net(moles, env), sources, seed)
	c.TopologyResolver = s.UseTopologyResolver
	return c
}

// Energy/timing model and en-route filtering, re-exported for the
// complementary-defense comparisons.
type (
	// EnergyModel converts packets and bytes into joules and seconds.
	EnergyModel = energy.Model
	// EnRouteFilter is a SEF-like statistical filtering policy.
	EnRouteFilter = filter.Filter
)

// Mica2Energy returns the Mica2-class constants the paper quotes.
func Mica2Energy() EnergyModel { return energy.Mica2() }

// ExpectedFilterTravel returns the expected hops a bogus report travels
// under per-hop detection probability q on an n-hop path.
func ExpectedFilterTravel(n int, q float64) float64 { return filter.ExpectedTravel(n, q) }

// FilterDeliveryProb returns the probability a bogus report evades all n
// filtering checks.
func FilterDeliveryProb(n int, q float64) float64 { return filter.SinkDeliveryProb(n, q) }
