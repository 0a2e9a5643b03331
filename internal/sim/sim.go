// Package sim is the synchronous simulation engine behind the paper's
// experiments: it drives bogus reports from a source mole along a routing
// path, through an optional colluding forwarding mole, into the sink's
// tracker — one packet per Step, fully deterministic under a seed.
//
// The canonical scenario mirrors the paper's Figure 1: a chain
// S -> V1 -> ... -> Vn -> sink with the source mole S injecting and a
// colluding mole X at position x manipulating marks. Two extra off-path
// innocent nodes exist so that framing attacks have somebody to frame.
package sim

import (
	"fmt"
	"math/rand"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// AttackKind names a colluding-attack scenario from the paper's taxonomy
// (§2.2). Each kind configures the source and forwarding moles.
type AttackKind string

// The attack scenarios.
const (
	// AttackNone: source mole injects silently; no forwarding mole.
	AttackNone AttackKind = "none"
	// AttackNoMark: a forwarding mole that simply never marks.
	AttackNoMark AttackKind = "nomark"
	// AttackInsert: the forwarding mole prepends forged marks framing an
	// off-path innocent node.
	AttackInsert AttackKind = "insert"
	// AttackRemove: the forwarding mole strips the marks of the two
	// forwarders nearest the source.
	AttackRemove AttackKind = "remove"
	// AttackReorder: the forwarding mole reverses the collected marks.
	AttackReorder AttackKind = "reorder"
	// AttackAlter: the forwarding mole corrupts the upstream marks.
	AttackAlter AttackKind = "alter"
	// AttackDrop: the forwarding mole selectively drops packets marked by
	// the forwarder adjacent to the source (the naive-PNM breaker).
	AttackDrop AttackKind = "drop"
	// AttackSwap: source and forwarding mole swap identities, creating a
	// routing loop in the reconstructed order.
	AttackSwap AttackKind = "swap"
	// AttackHonestMark: the forwarding mole tampers but also leaves a
	// valid mark of its own — the paper's "when X leaves a valid mark,
	// the traceback stops at node X" case.
	AttackHonestMark AttackKind = "honestmark"
	// AttackCombo: removal + framing insertion + targeted re-ordering in
	// one pipeline, the coordinated manipulation §2.2 warns about.
	AttackCombo AttackKind = "combo"
)

// Attacks lists every attack kind in presentation order.
func Attacks() []AttackKind {
	return []AttackKind{
		AttackNone, AttackNoMark, AttackInsert, AttackRemove,
		AttackReorder, AttackAlter, AttackDrop, AttackSwap,
		AttackHonestMark, AttackCombo,
	}
}

// ChainConfig describes a chain scenario.
type ChainConfig struct {
	// Forwarders is n, the number of forwarding nodes between the source
	// mole and the sink.
	Forwarders int
	// Scheme is the deployed marking scheme.
	Scheme marking.Scheme
	// Attack selects the colluding-attack scenario.
	Attack AttackKind
	// MolePos places the forwarding mole at V_x (1 = adjacent to the
	// source). Zero picks the middle of the path. Ignored when the attack
	// involves no forwarding mole.
	MolePos int
	// Seed drives all randomness (marking decisions, attack choices).
	Seed int64
	// TopologyResolver switches the sink to the §7 O(d) ring-expanding
	// anonymous-ID resolution instead of the exhaustive table.
	TopologyResolver bool
	// Master seeds the key store; the default is deterministic.
	Master []byte
}

// Runner drives one scenario packet by packet.
type Runner struct {
	topo     *topology.Network
	keys     *mac.KeyStore
	scheme   marking.Scheme
	tracker  *sink.Tracker
	verifier sink.Verifier
	rng      *rand.Rand

	sourceID packet.NodeID
	moleID   packet.NodeID // 0 when no forwarding mole
	frameID  packet.NodeID // off-path innocent used by framing attacks
	source   *mole.Source
	fmole    *mole.Forwarder
	env      *mole.Env
	fwd      []packet.NodeID // forwarding path, most upstream (V1) first

	offered   int
	delivered int
}

// NewChainRunner builds the Figure-1 chain scenario.
func NewChainRunner(cfg ChainConfig) (*Runner, error) {
	n := cfg.Forwarders
	if n < 1 {
		return nil, fmt.Errorf("sim: need at least 1 forwarder, got %d", n)
	}
	// Nodes 1..n are the forwarders (V_k = node n+1-k), node n+1 is the
	// source mole, nodes n+2 and n+3 are off-path innocents.
	topo, err := topology.NewChain(n + 3)
	if err != nil {
		return nil, err
	}
	master := cfg.Master
	if master == nil {
		master = []byte("pnm/sim/default-master")
	}
	keys := mac.NewKeyStore(master)

	sourceID := packet.NodeID(n + 1)
	frameID := packet.NodeID(n + 3)
	fwd := topo.Forwarders(sourceID)
	if len(fwd) != n {
		return nil, fmt.Errorf("sim: internal error: %d forwarders, want %d", len(fwd), n)
	}

	var resolver sink.Resolver
	if cfg.TopologyResolver {
		resolver = sink.NewTopologyResolver(keys, topo)
	} else {
		resolver = sink.NewExhaustiveResolver(keys, topo.Nodes())
	}
	verifier, err := sink.NewVerifier(cfg.Scheme, keys, topo.NumNodes(), resolver)
	if err != nil {
		return nil, err
	}

	r := &Runner{
		topo:     topo,
		keys:     keys,
		scheme:   cfg.Scheme,
		tracker:  sink.NewTracker(verifier, topo),
		verifier: verifier,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		sourceID: sourceID,
		frameID:  frameID,
		fwd:      fwd,
	}
	if err := r.configureAttack(cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// vx returns the node ID of the x-th forwarder counted from the source
// (V1 is adjacent to the source mole).
func (r *Runner) vx(x int) packet.NodeID {
	return r.fwd[x-1]
}

// configureAttack builds the source and forwarding moles for the scenario.
func (r *Runner) configureAttack(cfg ChainConfig) error {
	n := len(r.fwd)
	x := cfg.MolePos
	if x == 0 {
		x = (n + 1) / 2
	}
	if x < 1 || x > n {
		return fmt.Errorf("sim: mole position %d outside path of %d forwarders", x, n)
	}

	stolen := map[packet.NodeID]mac.Key{r.sourceID: r.keys.Key(r.sourceID)}
	r.source = &mole.Source{
		ID:       r.sourceID,
		Base:     packet.Report{Event: 0xC0FFEE, Location: uint32(r.sourceID), Timestamp: 1},
		Behavior: mole.MarkNever,
	}

	var fm *mole.Forwarder
	switch cfg.Attack {
	case AttackNone:
		// No forwarding mole.
	case AttackNoMark:
		fm = &mole.Forwarder{Behavior: mole.MarkNever}
	case AttackInsert:
		fm = &mole.Forwarder{
			Behavior: mole.MarkNever,
			Tampers:  []mole.Tamper{mole.InsertFake{N: 2, Impersonate: []packet.NodeID{r.frameID}}},
		}
	case AttackRemove:
		victims := []packet.NodeID{r.vx(1)}
		if n >= 2 {
			victims = append(victims, r.vx(2))
		}
		fm = &mole.Forwarder{
			Behavior: mole.MarkNever,
			Tampers:  []mole.Tamper{mole.RemoveByID{IDs: victims}},
		}
	case AttackReorder:
		// Consistently present V3 as the most upstream marker so schemes
		// without nested protection reconstruct a stable wrong route.
		target := r.vx(min(3, n))
		fm = &mole.Forwarder{
			Behavior: mole.MarkNever,
			Tampers:  []mole.Tamper{mole.ReorderFixed{First: []packet.NodeID{target}}},
		}
	case AttackAlter:
		victims := []packet.NodeID{r.vx(1)}
		if n >= 2 {
			victims = append(victims, r.vx(2))
		}
		fm = &mole.Forwarder{
			Behavior: mole.MarkNever,
			Tampers:  []mole.Tamper{mole.AlterByID{IDs: victims}},
		}
	case AttackDrop:
		fm = &mole.Forwarder{
			Behavior: mole.MarkNever,
			Tampers:  []mole.Tamper{mole.SelectiveDrop{DropIfMarkedBy: []packet.NodeID{r.vx(1)}}},
		}
	case AttackSwap:
		fm = &mole.Forwarder{Behavior: mole.MarkSwap}
		r.source.Behavior = mole.MarkSwap
	case AttackHonestMark:
		// The mole removes upstream evidence but marks honestly —
		// nested MACs then pin the traceback on the mole itself.
		fm = &mole.Forwarder{
			Behavior: mole.MarkHonest,
			Tampers:  []mole.Tamper{mole.RemoveAll{}},
		}
	case AttackCombo:
		// Targeted removal plus targeted re-ordering. Both tampers are
		// conditional on plaintext attribution, so packets without victim
		// marks pass untouched — unconditional tampering (e.g. inserting
		// a fake into every packet) would invalidate every upstream
		// region and self-localize the mole under nested MACs.
		victims := []packet.NodeID{r.vx(1)}
		if n >= 2 {
			victims = append(victims, r.vx(2))
		}
		fm = &mole.Forwarder{
			Behavior: mole.MarkNever,
			Tampers: []mole.Tamper{
				mole.RemoveByID{IDs: victims},
				mole.ReorderFixed{First: []packet.NodeID{r.vx(min(3, n))}},
			},
		}
	default:
		return fmt.Errorf("sim: unknown attack %q", cfg.Attack)
	}

	if fm != nil {
		fm.ID = r.vx(x)
		r.moleID = fm.ID
		stolen[fm.ID] = r.keys.Key(fm.ID)
		if cfg.Attack == AttackSwap {
			fm.SwapPartner = r.sourceID
			r.source.SwapPartner = fm.ID
		}
		r.fmole = fm
	}
	r.env = &mole.Env{Scheme: r.scheme, StolenKeys: stolen}
	return nil
}

// Net returns the underlying network bundle, for callers composing custom
// delivery pipelines (isolation campaigns, filtering comparisons).
func (r *Runner) Net() *Net {
	moles := make(map[packet.NodeID]*mole.Forwarder, 1)
	if r.fmole != nil {
		moles[r.fmole.ID] = r.fmole
	}
	return &Net{
		Topo:   r.topo,
		Keys:   r.keys,
		Scheme: r.scheme,
		Moles:  moles,
		Env:    r.env,
	}
}

// Step injects one bogus report and forwards it hop by hop to the sink.
// It returns the sink's verification result and whether the packet was
// delivered at all (a selectively-dropping mole may discard it).
// Legitimate stretches use the incremental encoder for O(path) marking.
func (r *Runner) Step() (sink.Result, bool) {
	r.offered++
	inc := marking.Resume(r.source.Next(r.env, r.rng))
	for _, id := range r.fwd {
		if r.fmole != nil && id == r.fmole.ID {
			out, ok := r.fmole.Process(inc.Message(), r.env, r.rng)
			if !ok {
				return sink.Result{}, false
			}
			inc = marking.Resume(out)
			continue
		}
		inc.Apply(r.scheme, id, r.keys.Key(id), r.rng)
	}
	r.delivered++
	return r.tracker.Observe(inc.Message(), 0), true
}

// Run executes packets steps and returns how many were delivered.
func (r *Runner) Run(packets int) int {
	delivered := 0
	for i := 0; i < packets; i++ {
		if _, ok := r.Step(); ok {
			delivered++
		}
	}
	return delivered
}

// Tracker exposes the sink-side tracker.
func (r *Runner) Tracker() *sink.Tracker { return r.tracker }

// Topology exposes the network.
func (r *Runner) Topology() *topology.Network { return r.topo }

// Keys exposes the key store shared by nodes and sink.
func (r *Runner) Keys() *mac.KeyStore { return r.keys }

// Moles returns the compromised node IDs (source first).
func (r *Runner) Moles() []packet.NodeID {
	out := []packet.NodeID{r.sourceID}
	if r.moleID != 0 {
		out = append(out, r.moleID)
	}
	return out
}

// SourceID returns the source mole's node ID.
func (r *Runner) SourceID() packet.NodeID { return r.sourceID }

// MoleID returns the forwarding mole's node ID (0 if none).
func (r *Runner) MoleID() packet.NodeID { return r.moleID }

// FrameTarget returns the off-path innocent framing attacks accuse.
func (r *Runner) FrameTarget() packet.NodeID { return r.frameID }

// Forwarders returns the forwarding path, most upstream (V1) first.
func (r *Runner) Forwarders() []packet.NodeID {
	out := make([]packet.NodeID, len(r.fwd))
	copy(out, r.fwd)
	return out
}

// ExpectedStop returns the node a correct traceback converges to in clean
// (non-tampering) runs: V1, the forwarder adjacent to the source.
func (r *Runner) ExpectedStop() packet.NodeID { return r.vx(1) }

// Offered and Delivered report packet counters.
func (r *Runner) Offered() int { return r.offered }

// Delivered returns how many packets reached the sink.
func (r *Runner) Delivered() int { return r.delivered }

// SecurityHolds reports the paper's one-hop-precision property: the current
// verdict localizes at least one mole (source or colluder) within the
// suspected neighborhood. A missing verdict counts as a defeat.
func (r *Runner) SecurityHolds() bool {
	v := r.tracker.Verdict()
	if !v.HasStop {
		return false
	}
	return v.SuspectsContain(r.Moles()...)
}
