package sim

import (
	"testing"

	"pnm/internal/marking"
	"pnm/internal/packet"
)

func pnmScheme(n int) marking.Scheme {
	return marking.PNM{P: 3 / float64(n)}
}

func TestNewChainRunnerValidation(t *testing.T) {
	if _, err := NewChainRunner(ChainConfig{Forwarders: 0, Scheme: marking.Nested{}}); err == nil {
		t.Fatal("want error for zero forwarders")
	}
	if _, err := NewChainRunner(ChainConfig{Forwarders: 5, Scheme: marking.Nested{}, Attack: "bogus"}); err == nil {
		t.Fatal("want error for unknown attack")
	}
	if _, err := NewChainRunner(ChainConfig{Forwarders: 5, Scheme: marking.Nested{}, Attack: AttackNoMark, MolePos: 9}); err == nil {
		t.Fatal("want error for mole position off the path")
	}
}

func TestChainRunnerLayout(t *testing.T) {
	r, err := NewChainRunner(ChainConfig{Forwarders: 10, Scheme: pnmScheme(10), Attack: AttackNone, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.SourceID(); got != 11 {
		t.Fatalf("SourceID = %v, want V11", got)
	}
	fwd := r.Forwarders()
	if len(fwd) != 10 || fwd[0] != 10 || fwd[9] != 1 {
		t.Fatalf("Forwarders = %v", fwd)
	}
	if got := r.ExpectedStop(); got != 10 {
		t.Fatalf("ExpectedStop = %v, want V10", got)
	}
	if got := r.FrameTarget(); got != 13 {
		t.Fatalf("FrameTarget = %v, want V13", got)
	}
	if r.MoleID() != 0 {
		t.Fatalf("MoleID = %v, want none", r.MoleID())
	}
	if moles := r.Moles(); len(moles) != 1 || moles[0] != 11 {
		t.Fatalf("Moles = %v", moles)
	}
}

func TestCleanRunIdentifiesSource(t *testing.T) {
	r, err := NewChainRunner(ChainConfig{Forwarders: 10, Scheme: pnmScheme(10), Attack: AttackNone, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	delivered := r.Run(200)
	if delivered != 200 {
		t.Fatalf("delivered = %d, want 200", delivered)
	}
	v := r.Tracker().Verdict()
	if !v.Identified || v.Stop != r.ExpectedStop() {
		t.Fatalf("verdict = %+v, want identified at V10", v)
	}
	if !r.SecurityHolds() {
		t.Fatal("clean run did not localize the source mole")
	}
	if r.Offered() != 200 || r.Delivered() != 200 {
		t.Fatalf("counters = %d/%d", r.Delivered(), r.Offered())
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	run := func() packet.NodeID {
		r, err := NewChainRunner(ChainConfig{Forwarders: 8, Scheme: pnmScheme(8), Attack: AttackNone, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		r.Run(50)
		return r.Tracker().Verdict().Stop
	}
	if run() != run() {
		t.Fatal("same seed produced different outcomes")
	}
}

func TestSecurityMatrixShape(t *testing.T) {
	// The paper's sufficiency/necessity result as an executable table:
	// which (scheme, attack) pairs keep one-hop precision.
	const n, packets = 10, 600
	type key struct {
		scheme string
		attack AttackKind
	}
	want := map[key]bool{
		{"ppm", AttackNone}: true, {"ppm", AttackNoMark}: true,
		{"ppm", AttackInsert}: false, {"ppm", AttackRemove}: false,
		{"ppm", AttackReorder}: false, {"ppm", AttackAlter}: false,
		{"ppm", AttackDrop}: false,

		{"ams", AttackNone}: true, {"ams", AttackNoMark}: true,
		{"ams", AttackInsert}: true, {"ams", AttackRemove}: false,
		{"ams", AttackReorder}: false, {"ams", AttackAlter}: false,
		{"ams", AttackDrop}: false,

		// The naive extension (probabilistic nested marking with plaintext
		// IDs) is broken by every plaintext-attribution attack, not only
		// the paper's selective-dropping example: packets in which the
		// targeted upstream nodes happened not to mark pass untouched and
		// leak an innocent as the most upstream marker. Anonymity — not
		// nesting — is what closes this whole class.
		{"naive", AttackNone}: true, {"naive", AttackNoMark}: true,
		{"naive", AttackInsert}: true, {"naive", AttackRemove}: false,
		{"naive", AttackReorder}: false, {"naive", AttackAlter}: false,
		{"naive", AttackDrop}: false, // the paper's selective-dropping breaker

		{"pnm", AttackNone}: true, {"pnm", AttackNoMark}: true,
		{"pnm", AttackInsert}: true, {"pnm", AttackRemove}: true,
		{"pnm", AttackReorder}: true, {"pnm", AttackAlter}: true,
		{"pnm", AttackDrop}: true, {"pnm", AttackSwap}: true,
	}
	p := 3 / float64(n)
	schemes := map[string]marking.Scheme{
		"ppm":   marking.PPM{P: p},
		"ams":   marking.AMS{P: p},
		"naive": marking.NaiveProbNested{P: p},
		"pnm":   marking.PNM{P: p},
	}
	for k, wantSecure := range want {
		t.Run(k.scheme+"/"+string(k.attack), func(t *testing.T) {
			r, err := NewChainRunner(ChainConfig{
				Forwarders: n,
				Scheme:     schemes[k.scheme],
				Attack:     k.attack,
				Seed:       42,
			})
			if err != nil {
				t.Fatal(err)
			}
			r.Run(packets)
			if got := r.SecurityHolds(); got != wantSecure {
				v := r.Tracker().Verdict()
				t.Fatalf("SecurityHolds = %v, want %v (verdict %+v, delivered %d)",
					got, wantSecure, v, r.Delivered())
			}
		})
	}
}

func TestNestedSinglePacketSecurity(t *testing.T) {
	// Basic nested marking localizes a mole with a single packet under
	// every non-dropping attack.
	for _, attack := range []AttackKind{AttackNone, AttackNoMark, AttackInsert, AttackRemove, AttackReorder, AttackAlter} {
		t.Run(string(attack), func(t *testing.T) {
			r, err := NewChainRunner(ChainConfig{
				Forwarders: 9,
				Scheme:     marking.Nested{},
				Attack:     attack,
				Seed:       5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if delivered := r.Run(1); delivered != 1 {
				t.Fatalf("delivered = %d", delivered)
			}
			if !r.SecurityHolds() {
				t.Fatalf("single packet failed to localize a mole: %+v", r.Tracker().Verdict())
			}
		})
	}
}

func TestNestedSelectiveDropSelfDefeats(t *testing.T) {
	// Under deterministic nested marking every packet carries V1's mark,
	// so selective dropping degenerates to dropping all attack traffic —
	// the case the paper's footnote excludes because the attack then
	// achieves nothing.
	r, err := NewChainRunner(ChainConfig{
		Forwarders: 9,
		Scheme:     marking.Nested{},
		Attack:     AttackDrop,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered := r.Run(50); delivered != 0 {
		t.Fatalf("delivered = %d, want 0 (self-defeating drop)", delivered)
	}
}

func TestSwapAttackLocalizesMole(t *testing.T) {
	r, err := NewChainRunner(ChainConfig{
		Forwarders: 10,
		Scheme:     pnmScheme(10),
		Attack:     AttackSwap,
		Seed:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(600)
	// The topology resolver rejects the swapped mark (its claimed marker
	// is not upstream of the next verified node), so the chain stops at
	// the source with no loop. The base method's Figure 2 loop is pinned
	// by TestTrackerLoopVerdict.
	v := r.Tracker().Verdict()
	if len(v.Loop) != 0 {
		t.Fatalf("identity swapping formed a loop under the topology resolver: %+v", v)
	}
	if !v.HasStop || !v.Identified || v.Stop != r.SourceID() {
		t.Fatalf("verdict = %+v, want identified stop at the source %v", v, r.SourceID())
	}
	if !r.SecurityHolds() {
		t.Fatalf("swap attack evaded localization: %+v", v)
	}
}

func TestAttacksList(t *testing.T) {
	if got := len(Attacks()); got != 10 {
		t.Fatalf("Attacks() has %d entries, want 10", got)
	}
}

func TestHonestMarkingMoleExposesItself(t *testing.T) {
	// §4.1: "when X leaves a valid mark, the traceback stops at node X".
	for _, scheme := range []marking.Scheme{marking.Nested{}, pnmScheme(10)} {
		r, err := NewChainRunner(ChainConfig{
			Forwarders: 10,
			Scheme:     scheme,
			Attack:     AttackHonestMark,
			Seed:       31,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Run(300)
		v := r.Tracker().Verdict()
		if !v.HasStop || v.Stop != r.MoleID() {
			t.Fatalf("%s: stop = %v, want the mole %v itself", scheme.Name(), v.Stop, r.MoleID())
		}
		if !r.SecurityHolds() {
			t.Fatalf("%s: security should hold", scheme.Name())
		}
	}
}

func TestComboAttack(t *testing.T) {
	// The coordinated pipeline breaks every plaintext scheme but not PNM.
	for _, tt := range []struct {
		scheme marking.Scheme
		secure bool
	}{
		{pnmScheme(10), true},
		{marking.Nested{}, true},
		{marking.NaiveProbNested{P: 0.3}, false},
		{marking.AMS{P: 0.3}, false},
		{marking.PPM{P: 0.3}, false},
	} {
		r, err := NewChainRunner(ChainConfig{
			Forwarders: 10,
			Scheme:     tt.scheme,
			Attack:     AttackCombo,
			Seed:       32,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Run(500)
		if got := r.SecurityHolds(); got != tt.secure {
			t.Fatalf("%s under combo: secure = %v, want %v (verdict %+v)",
				tt.scheme.Name(), got, tt.secure, r.Tracker().Verdict())
		}
	}
}
