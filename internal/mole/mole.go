// Package mole implements the adversary: compromised sensor nodes that
// inject bogus reports (source moles) and tamper with marks while
// forwarding (colluding forwarding moles).
//
// The package provides the full attack taxonomy of the paper's §2.2 as
// composable primitives: no-mark, mark insertion, mark removal, mark
// re-ordering, mark altering, selective dropping, identity swapping, and
// replay. Moles hold only the keys of compromised nodes (Env.StolenKeys) —
// they cannot derive keys of legitimate nodes.
package mole

import (
	"math/rand"
	"sort"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/packet"
)

// Env is the knowledge a mole acts with: the marking scheme in use and the
// keys harvested from every compromised node (its own plus colluders').
type Env struct {
	// Scheme is the marking scheme deployed in the network. Moles know the
	// protocol; they lack only the legitimate nodes' keys.
	Scheme marking.Scheme
	// StolenKeys maps each compromised node to its key.
	StolenKeys map[packet.NodeID]mac.Key
}

// Tamper is one mark-manipulation step a forwarding mole applies. Apply
// returns the tampered message and whether the packet is forwarded at all
// (false means the mole dropped it).
type Tamper interface {
	// Name identifies the tamper for reports and factories.
	Name() string
	// Apply tampers with msg. It must not mutate msg.
	Apply(msg packet.Message, env *Env, rng *rand.Rand) (packet.Message, bool)
}

// RemoveFirst strips the N most upstream marks (the paper's mark-removal
// attack: remove node 1's mark so the traceback stops at innocent node 2).
type RemoveFirst struct {
	// N is the number of leading marks to remove.
	N int
}

// Name implements Tamper.
func (RemoveFirst) Name() string { return "remove-first" }

// Apply implements Tamper.
func (t RemoveFirst) Apply(msg packet.Message, _ *Env, _ *rand.Rand) (packet.Message, bool) {
	out := msg.Clone()
	n := t.N
	if n > len(out.Marks) {
		n = len(out.Marks)
	}
	out.Marks = out.Marks[n:]
	return out, true
}

// RemoveAll strips every existing mark.
type RemoveAll struct{}

// Name implements Tamper.
func (RemoveAll) Name() string { return "remove-all" }

// Apply implements Tamper.
func (RemoveAll) Apply(msg packet.Message, _ *Env, _ *rand.Rand) (packet.Message, bool) {
	out := msg.Clone()
	out.Marks = nil
	return out, true
}

// RemoveByID strips marks left by specific nodes — the targeted removal a
// colluder with plaintext-ID visibility uses to hide its upstream partners
// while keeping other marks so the sink traces to an innocent node.
// Anonymous marks cannot be attributed and are never removed.
type RemoveByID struct {
	// IDs lists the victims whose marks are stripped.
	IDs []packet.NodeID
}

// Name implements Tamper.
func (RemoveByID) Name() string { return "remove-by-id" }

// Apply implements Tamper.
func (t RemoveByID) Apply(msg packet.Message, _ *Env, _ *rand.Rand) (packet.Message, bool) {
	out := msg.Clone()
	kept := out.Marks[:0]
	for _, mk := range out.Marks {
		victim := false
		if !mk.Anonymous {
			for _, id := range t.IDs {
				if mk.ID == id {
					victim = true
					break
				}
			}
		}
		if !victim {
			kept = append(kept, mk)
		}
	}
	out.Marks = kept
	return out, true
}

// Reorder permutes the existing marks (the mark re-ordering attack). With
// Reverse set it reverses them; otherwise it shuffles.
type Reorder struct {
	// Reverse reverses the mark order instead of shuffling.
	Reverse bool
}

// Name implements Tamper.
func (Reorder) Name() string { return "reorder" }

// Apply implements Tamper.
func (t Reorder) Apply(msg packet.Message, _ *Env, rng *rand.Rand) (packet.Message, bool) {
	out := msg.Clone()
	if len(out.Marks) < 2 {
		return out, true
	}
	if t.Reverse {
		for i, j := 0, len(out.Marks)-1; i < j; i, j = i+1, j-1 {
			out.Marks[i], out.Marks[j] = out.Marks[j], out.Marks[i]
		}
		return out, true
	}
	rng.Shuffle(len(out.Marks), func(i, j int) {
		out.Marks[i], out.Marks[j] = out.Marks[j], out.Marks[i]
	})
	return out, true
}

// ReorderFixed moves the plaintext marks of chosen victims to the front of
// the mark list, in the given order, leaving everything else in relative
// order. It is the adversarial re-ordering that consistently presents a
// chosen innocent as the most upstream marker, so the sink reconstructs a
// stable — but wrong — route. Anonymous marks cannot be targeted.
type ReorderFixed struct {
	// First lists the victims whose marks are pulled to the front.
	First []packet.NodeID
}

// Name implements Tamper.
func (ReorderFixed) Name() string { return "reorder-fixed" }

// Apply implements Tamper.
func (t ReorderFixed) Apply(msg packet.Message, _ *Env, _ *rand.Rand) (packet.Message, bool) {
	out := msg.Clone()
	rank := make(map[packet.NodeID]int, len(t.First))
	for i, id := range t.First {
		rank[id] = i + 1
	}
	var front, rest []packet.Mark
	for _, mk := range out.Marks {
		if !mk.Anonymous && rank[mk.ID] > 0 {
			front = append(front, mk)
		} else {
			rest = append(rest, mk)
		}
	}
	sort.SliceStable(front, func(i, j int) bool {
		return rank[front[i].ID] < rank[front[j].ID]
	})
	out.Marks = append(front, rest...)
	return out, true
}

// AlterByID corrupts the marks of specific victims: the MAC is flipped and
// the claimed identity nudged to a different node, so schemes that verify
// marks individually discard the victims' marks while schemes without MACs
// misattribute them. Anonymous marks cannot be targeted.
type AlterByID struct {
	// IDs lists the victims whose marks are corrupted.
	IDs []packet.NodeID
}

// Name implements Tamper.
func (AlterByID) Name() string { return "alter-by-id" }

// Apply implements Tamper.
func (t AlterByID) Apply(msg packet.Message, _ *Env, _ *rand.Rand) (packet.Message, bool) {
	out := msg.Clone()
	for i := range out.Marks {
		mk := &out.Marks[i]
		if mk.Anonymous {
			continue
		}
		for _, id := range t.IDs {
			if mk.ID == id {
				mk.MAC[0] ^= 0xA5
				// Nudge the claimed identity to an adjacent innocent so
				// MAC-less schemes misattribute the mark.
				if mk.ID > 1 {
					mk.ID--
				} else {
					mk.ID++
				}
				break
			}
		}
	}
	return out, true
}

// Alter flips bits in existing marks, invalidating them (the mark-altering
// attack: turn marks 1,2,3 into 1',2',3').
type Alter struct {
	// First limits the attack to the First most upstream marks; zero means
	// all marks.
	First int
}

// Name implements Tamper.
func (Alter) Name() string { return "alter" }

// Apply implements Tamper.
func (t Alter) Apply(msg packet.Message, _ *Env, _ *rand.Rand) (packet.Message, bool) {
	out := msg.Clone()
	n := len(out.Marks)
	if t.First > 0 && t.First < n {
		n = t.First
	}
	for i := 0; i < n; i++ {
		out.Marks[i].MAC[0] ^= 0xA5
		// Also corrupt the claimed identity so schemes that ignore MACs
		// (PPM) are attacked too: V5 becomes V4, an innocent.
		if !out.Marks[i].Anonymous {
			out.Marks[i].ID ^= 1
		} else {
			out.Marks[i].AnonID[0] ^= 0xA5
		}
	}
	return out, true
}

// InsertFake inserts marks with forged identities and random MACs (the
// mark-insertion attack). Impersonate lists innocent IDs to frame; when
// empty, random IDs are used. Marks are forged in the deployed scheme's
// format so they are not trivially distinguishable.
type InsertFake struct {
	// N is how many fake marks to prepend.
	N int
	// Impersonate lists the innocent node IDs to frame, cycled if shorter
	// than N.
	Impersonate []packet.NodeID
}

// Name implements Tamper.
func (InsertFake) Name() string { return "insert" }

// Apply implements Tamper.
func (t InsertFake) Apply(msg packet.Message, env *Env, rng *rand.Rand) (packet.Message, bool) {
	out := msg.Clone()
	fakes := make([]packet.Mark, 0, t.N)
	for i := 0; i < t.N; i++ {
		// Without the victim's key the mole can only guess the MAC; an
		// unset claim asks for a random identity.
		claim := packet.SinkID
		if len(t.Impersonate) > 0 {
			claim = t.Impersonate[i%len(t.Impersonate)]
		}
		fakes = append(fakes, marking.Fake(env.Scheme, claim, rng))
	}
	out.Marks = append(fakes, out.Marks...)
	return out, true
}

// SelectiveDrop drops packets bearing a plaintext mark from any node in
// DropIfMarkedBy — the attack that breaks the naive probabilistic extension.
// Anonymous marks cannot be matched, so under PNM the predicate never fires
// and every packet passes: exactly the defense the paper designs.
type SelectiveDrop struct {
	// DropIfMarkedBy lists the (upstream) nodes whose marks trigger a drop.
	DropIfMarkedBy []packet.NodeID
}

// Name implements Tamper.
func (SelectiveDrop) Name() string { return "drop" }

// Apply implements Tamper.
func (t SelectiveDrop) Apply(msg packet.Message, _ *Env, _ *rand.Rand) (packet.Message, bool) {
	for _, mk := range msg.Marks {
		if mk.Anonymous {
			continue // the mole cannot attribute anonymous marks
		}
		for _, id := range t.DropIfMarkedBy {
			if mk.ID == id {
				return packet.Message{}, false
			}
		}
	}
	return msg, true
}

// MarkBehavior selects how a mole marks packets it originates or forwards.
type MarkBehavior int

// Mole marking behaviours.
const (
	// MarkNever leaves no mark (the no-mark attack).
	MarkNever MarkBehavior = iota + 1
	// MarkHonest leaves a valid mark with the mole's own identity,
	// following the scheme's marking probability like a legitimate node.
	MarkHonest
	// MarkSwap alternates between the mole's own identity and a colluding
	// partner's (the identity-swapping attack, creating loops).
	MarkSwap
)

// mark applies behaviour b to msg for mole self. MarkHonest runs the
// scheme, coin and all, under self's key. MarkSwap always leaves a valid
// forged mark: the partner's with probability swapProb (0.5 when unset),
// else self's.
func (b MarkBehavior) mark(msg packet.Message, self, partner packet.NodeID, swapProb float64, env *Env, rng *rand.Rand) packet.Message {
	switch b {
	case MarkHonest:
		return env.Scheme.Mark(self, env.StolenKeys[self], msg, rng)
	case MarkSwap:
		if swapProb == 0 {
			swapProb = 0.5
		}
		id := self
		if rng.Float64() < swapProb {
			id = partner
		}
		return marking.Forge(env.Scheme, id, env.StolenKeys[id], msg)
	}
	return msg
}

// Forwarder is a colluding mole on the forwarding path: it applies its
// tamper pipeline to each packet, then marks (or not) per its behaviour.
type Forwarder struct {
	// ID is the mole's own identity.
	ID packet.NodeID
	// Behavior selects the mole's marking conduct.
	Behavior MarkBehavior
	// SwapPartner is the colluder whose identity MarkSwap borrows.
	SwapPartner packet.NodeID
	// Tampers run in order on every forwarded packet.
	Tampers []Tamper
	// SwapProb is the probability MarkSwap uses the partner's identity
	// (default 0.5). MarkSwap always leaves a mark so the loop forms.
	SwapProb float64
}

// Process handles one packet passing through the mole. The boolean reports
// whether the packet is forwarded.
func (f *Forwarder) Process(msg packet.Message, env *Env, rng *rand.Rand) (packet.Message, bool) {
	cur := msg
	for _, t := range f.Tampers {
		var ok bool
		cur, ok = t.Apply(cur, env, rng)
		if !ok {
			return packet.Message{}, false
		}
	}
	return f.Behavior.mark(cur, f.ID, f.SwapPartner, f.SwapProb, env, rng), true
}

// Replayer implements the replay attack of §7: a mole records legitimate
// messages it overhears or forwards — marks and all — and re-injects them
// later, hoping the stale-but-valid marks send the traceback after the
// original, innocent sender.
type Replayer struct {
	captured []packet.Message
	next     int
}

// Capture records one overheard message.
func (r *Replayer) Capture(msg packet.Message) {
	r.captured = append(r.captured, msg.Clone())
}

// Captured returns how many messages are stored.
func (r *Replayer) Captured() int { return len(r.captured) }

// Next returns the next replayed message, cycling through the store, and
// false when nothing was captured.
func (r *Replayer) Next() (packet.Message, bool) {
	if len(r.captured) == 0 {
		return packet.Message{}, false
	}
	msg := r.captured[r.next%len(r.captured)].Clone()
	r.next++
	return msg, true
}

// Source is a source mole injecting bogus reports. Reports vary in content
// (sequence number and event) because duplicate copies would be suppressed
// en route.
type Source struct {
	// ID is the source mole's identity.
	ID packet.NodeID
	// Base seeds the forged report content.
	Base packet.Report
	// Behavior selects how the source marks its own injections. A source
	// hiding its location uses MarkNever.
	Behavior MarkBehavior
	// SwapPartner is the colluder identity used under MarkSwap.
	SwapPartner packet.NodeID
	// SwapProb is the probability MarkSwap uses the partner's identity.
	SwapProb float64
	// FakeMarks, when positive, prepends that many forged marks to every
	// injection (source-side mark insertion).
	FakeMarks int

	seq uint32
}

// Next forges the source's next bogus report, already marked per Behavior.
func (s *Source) Next(env *Env, rng *rand.Rand) packet.Message {
	s.seq++
	rep := s.Base
	rep.Seq = s.seq
	rep.Event = s.Base.Event ^ s.seq // vary content to evade duplicate suppression
	msg := packet.Message{Report: rep}
	if s.FakeMarks > 0 {
		msg, _ = InsertFake{N: s.FakeMarks}.Apply(msg, env, rng)
	}
	return s.Behavior.mark(msg, s.ID, s.SwapPartner, s.SwapProb, env, rng)
}
