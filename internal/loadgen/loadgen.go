// Package loadgen builds the seeded scenario that pnmlive runs in
// process and that the network transport is tested and load-driven with:
// a random geometric field, its key store, and the mole's attack stream.
// Stream pre-marks that stream by every forwarder on the mole's routing
// path, exactly as the packets would arrive at the sink. Because the
// stream is a pure function of the scenario config, a load generator
// (cmd/pnmload) and a server (cmd/pnmserve) built from the same config
// agree on every byte — which is what lets the loopback end-to-end test
// demand a verdict byte-identical to the in-process run.
package loadgen

import (
	"fmt"
	"math/rand"

	"pnm/internal/analytic"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// nodeSeedSalt matches netsim's per-node RNG derivation so the marked
// streams are drawn from the same per-node decision sequences.
const nodeSeedSalt = 0x9E3779B97F4A7C

// Config describes a scenario. pnmlive, pnmserve and pnmload all set it
// from the same -nodes/-side/-range/-seed flags, so the same knobs
// regenerate the same network in process and on both ends of a socket.
type Config struct {
	// Nodes, Side, RadioRange, Seed parameterize the random geometric
	// deployment.
	Nodes      int
	Side       float64
	RadioRange float64
	Seed       int64
	// Master seeds the key store; empty means "pnmlive".
	Master []byte
	// RedundancyMarks tunes the PNM marking probability toward this many
	// expected marks per packet; <= 0 means 3.
	RedundancyMarks float64
}

// Scenario is a generated deployment plus the deterministic attack stream
// against it.
type Scenario struct {
	// Topo is the deployment; the sink sits at the corner.
	Topo *topology.Network
	// Keys is the shared key store both endpoints derive.
	Keys *mac.KeyStore
	// Scheme is the deployed PNM scheme.
	Scheme marking.Scheme
	// Mole is the source mole (the deepest node).
	Mole packet.NodeID
	// Hops is the mole's depth.
	Hops int

	cfg Config
}

// New builds the scenario both endpoints agree on.
func New(cfg Config) (*Scenario, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("loadgen: need a positive node count")
	}
	if len(cfg.Master) == 0 {
		cfg.Master = []byte("pnmlive")
	}
	if cfg.RedundancyMarks <= 0 {
		cfg.RedundancyMarks = 3
	}
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: cfg.Nodes, Side: cfg.Side, RadioRange: cfg.RadioRange,
		Seed: cfg.Seed, SinkAtCorner: true,
	})
	if err != nil {
		return nil, err
	}
	moleID := topo.DeepestNode()
	hops := topo.Depth(moleID)
	return &Scenario{
		Topo:   topo,
		Keys:   mac.NewKeyStore(cfg.Master),
		Scheme: marking.PNM{P: analytic.ProbabilityForMarks(hops-1, cfg.RedundancyMarks)},
		Mole:   moleID,
		Hops:   hops,
		cfg:    cfg,
	}, nil
}

// NewVerifier builds one verifier chain matching the scenario — the
// topology-restricted resolver pnmlive uses. Each call returns a fresh
// single-goroutine instance, so it serves as the factory a server's sink
// and its crash-restore path need.
func (s *Scenario) NewVerifier() sink.Verifier {
	r := sink.NewTopologyResolver(s.Keys, s.Topo)
	v, err := sink.NewVerifier(s.Scheme, s.Keys, s.Topo.NumNodes(), r)
	if err != nil {
		// The scheme is always PNM with a resolver; this cannot fail.
		panic(fmt.Sprintf("loadgen: verifier: %v", err))
	}
	return v
}

// NewTracker builds a tracker over a fresh verifier chain.
func (s *Scenario) NewTracker() *sink.Tracker {
	return sink.NewTracker(s.NewVerifier(), s.Topo)
}

// Source returns the scenario's attacker — the mole emitting unmarked
// bogus reports — and the adversary knowledge it forges them with: the
// mole's own stolen key. Stream and pnmlive draw their reports from it
// with an RNG seeded by the scenario seed.
func (s *Scenario) Source() (*mole.Source, *mole.Env) {
	env := &mole.Env{
		Scheme:     s.Scheme,
		StolenKeys: map[packet.NodeID]mac.Key{s.Mole: s.Keys.Key(s.Mole)},
	}
	return &mole.Source{
		ID:       s.Mole,
		Base:     packet.Report{Event: 0xF00D, Location: uint32(s.Mole)},
		Behavior: mole.MarkNever,
	}, env
}

// Stream returns the first n packets of the scenario's attack stream as
// they arrive at the sink: the mole's unmarked bogus reports, marked en
// route by every forwarder on its routing path under per-node seeded
// RNGs. The stream is a pure function of the config — calling Stream
// twice, or on two Scenarios built from equal configs, yields identical
// messages.
func (s *Scenario) Stream(n int) []packet.Message {
	src, env := s.Source()
	srcRng := rand.New(rand.NewSource(s.cfg.Seed))
	forwarders := s.Topo.Forwarders(s.Mole)
	rngs := make([]*rand.Rand, len(forwarders))
	for i, id := range forwarders {
		rngs[i] = rand.New(rand.NewSource(s.cfg.Seed ^ (int64(id) * nodeSeedSalt)))
	}
	// The sched marking path reuses one cached key schedule per forwarder
	// and one encode scratch buffer across the whole stream instead of
	// re-deriving and re-encoding per send. It appends through the same
	// kernel as Scheme.Mark, under the schedule instead of the cold key;
	// TestStreamMatchesSchemeMark pins the two byte-identical.
	scheme, ok := s.Scheme.(marking.PNM)
	if !ok {
		panic(fmt.Sprintf("loadgen: scheme %s is not PNM", s.Scheme.Name()))
	}
	hasher := s.Keys.Hasher()
	var macBuf []byte
	out := make([]packet.Message, 0, n)
	for p := 0; p < n; p++ {
		msg := src.Next(env, srcRng)
		for i, id := range forwarders {
			macBuf = scheme.MarkSched(hasher.Schedule(id), macBuf, &msg, id, rngs[i])
		}
		out = append(out, msg)
	}
	return out
}

// Verdict folds the first n stream packets into a fresh tracker and
// returns its conclusion — the in-process ground truth a networked run
// must reproduce byte for byte.
func (s *Scenario) Verdict(n int) sink.Verdict {
	tr := s.NewTracker()
	for _, msg := range s.Stream(n) {
		tr.Observe(msg, 0)
	}
	return tr.Verdict()
}

// FormatVerdict renders a verdict in the canonical single-line form both
// pnmserve and pnmload print, so "byte-identical verdict" is a string
// comparison. The no-stop case renders distinctly instead of showing a
// zero-value stop node.
func FormatVerdict(v sink.Verdict) string {
	if !v.HasStop {
		return "verdict: no marks accepted — no stop node"
	}
	return fmt.Sprintf("verdict: stop=%v suspects=%v loop=%v identified=%v",
		v.Stop, v.Suspects, v.Loop, v.Identified)
}
