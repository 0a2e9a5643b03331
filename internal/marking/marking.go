// Package marking implements the paper's marking schemes and the baselines
// it compares against, behind one Scheme interface:
//
//   - nested: the basic nested marking of §4.1 — every forwarding node
//     appends its plaintext ID and a MAC over the *entire* message it
//     received, enabling single-packet traceback.
//   - pnm: Probabilistic Nested Marking of §4.2 — nodes mark with
//     probability p using per-message anonymous IDs, defeating selective
//     dropping.
//   - naive: the paper's "incorrect extension" — probabilistic nested
//     marking with plaintext IDs, broken by selective dropping.
//   - ams: the extended Authenticated Marking Scheme (Song & Perrig) — each
//     mark carries H_k(report|id) but does not protect upstream marks.
//   - ppm: plaintext probabilistic packet marking (Savage et al.) with no
//     cryptographic protection at all.
//   - none: no marking, the do-nothing baseline.
//
// The package also exports the MAC-input constructions so the sink verifies
// exactly what nodes compute.
package marking

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"pnm/internal/mac"
	"pnm/internal/packet"
)

// Scheme is the per-hop marking behaviour a forwarding node runs.
// Implementations must not mutate msg; they return the message to forward.
type Scheme interface {
	// Name identifies the scheme ("pnm", "nested", ...).
	Name() string
	// Mark produces the message node id sends to its next hop given the
	// message it received. rng drives probabilistic marking decisions.
	Mark(id packet.NodeID, key mac.Key, msg packet.Message, rng *rand.Rand) packet.Message
}

// idBytes encodes a plaintext node ID exactly as it is appended to the MAC
// input ("M_{i-1} | i").
func idBytes(id packet.NodeID) [2]byte {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], uint16(id))
	return b
}

// NestedMACPlain computes H_k(M_{i-1} | i) for a plaintext-ID nested mark
// appended at position k of msg (i.e. covering msg's first k marks).
func NestedMACPlain(key mac.Key, msg packet.Message, k int, id packet.NodeID) [packet.MACLen]byte {
	buf := msg.EncodePrefix(nil, k)
	ib := idBytes(id)
	return mac.Sum(key, append(buf, ib[:]...))
}

// NestedMACAnon computes H_k(M_{i-1} | i') for an anonymous-ID nested mark
// appended at position k of msg.
func NestedMACAnon(key mac.Key, msg packet.Message, k int, anon [packet.AnonIDLen]byte) [packet.MACLen]byte {
	buf := msg.EncodePrefix(nil, k)
	return mac.Sum(key, append(buf, anon[:]...))
}

// AMSMAC computes the extended-AMS mark MAC H_k(M | i): it covers only the
// original report and the marking node's ID, never upstream marks — the
// structural weakness §3 exploits.
func AMSMAC(key mac.Key, report packet.Report, id packet.NodeID) [packet.MACLen]byte {
	buf := report.Encode(nil)
	ib := idBytes(id)
	return mac.Sum(key, append(buf, ib[:]...))
}

// The *Sched variants below compute the same MACs on a cached key schedule
// with a caller-owned encode buffer: the sink verifies one MAC per
// received mark (and O(n) per resolver table build), so its hot path must
// skip both the per-call subkey compression and the per-call encode
// allocation. Each encodes the message part and the appended ID into buf
// and MACs them as prefix and suffix through mac.Schedule.Sum — the same
// two-part call the sink's verifier makes over its once-per-packet
// encoding. Each returns the MAC plus the (possibly grown) buffer for the
// caller to reuse. Outputs are bit-identical to the cold functions above,
// which remain the one-shot node-side path.

// NestedMACAnonSched is NestedMACAnon on the marker's cached schedule.
// pnmlint:noalloc
func NestedMACAnonSched(s mac.Schedule, buf []byte, msg packet.Message, k int, anon [packet.AnonIDLen]byte) ([packet.MACLen]byte, []byte) {
	buf = msg.EncodePrefix(buf[:0], k)
	n := len(buf)
	buf = append(buf, anon[:]...)
	return s.Sum(buf[:n], buf[n:]), buf
}

// AMSMACSched is AMSMAC on node id's cached schedule.
// pnmlint:noalloc
func AMSMACSched(s mac.Schedule, buf []byte, report packet.Report, id packet.NodeID) ([packet.MACLen]byte, []byte) {
	buf = report.Encode(buf[:0])
	n := len(buf)
	ib := idBytes(id)
	buf = append(buf, ib[:]...)
	return s.Sum(buf[:n], buf[n:]), buf
}

// Nested is the basic nested marking scheme: deterministic, plaintext IDs,
// nested MACs. Every packet carries the complete path.
type Nested struct{}

// Name implements Scheme.
func (Nested) Name() string { return "nested" }

// Mark implements Scheme.
func (Nested) Mark(id packet.NodeID, key mac.Key, msg packet.Message, _ *rand.Rand) packet.Message {
	out := msg.Clone()
	out.Marks = append(out.Marks, packet.Mark{
		ID:  id,
		MAC: NestedMACPlain(key, msg, len(msg.Marks), id),
	})
	return out
}

// PNM is Probabilistic Nested Marking: with probability P a node appends an
// anonymous-ID nested mark.
type PNM struct {
	// P is the per-node marking probability, typically 3/n so a packet
	// carries three marks on average.
	P float64
}

// Name implements Scheme.
func (PNM) Name() string { return "pnm" }

// Mark implements Scheme.
func (s PNM) Mark(id packet.NodeID, key mac.Key, msg packet.Message, rng *rand.Rand) packet.Message {
	if rng.Float64() >= s.P {
		return msg
	}
	anon := mac.AnonID(key, msg.Report, id)
	out := msg.Clone()
	out.Marks = append(out.Marks, packet.Mark{
		Anonymous: true,
		AnonID:    anon,
		MAC:       NestedMACAnon(key, msg, len(msg.Marks), anon),
	})
	return out
}

// MarkSched is Mark on the marker's cached schedule: it draws the same
// marking decision from rng, appends the mark to msg in place (no clone)
// and reuses buf as MAC-input scratch, returning it for the next call —
// the allocation-conscious path load generators drive per send. For equal
// inputs the appended mark is byte-identical to Mark's.
// pnmlint:noalloc
func (s PNM) MarkSched(sched mac.Schedule, buf []byte, msg *packet.Message, id packet.NodeID, rng *rand.Rand) []byte {
	if rng.Float64() >= s.P {
		return buf
	}
	anon := sched.AnonID(msg.Report, id)
	var m [packet.MACLen]byte
	m, buf = NestedMACAnonSched(sched, buf, *msg, len(msg.Marks), anon)
	msg.Marks = append(msg.Marks, packet.Mark{
		Anonymous: true,
		AnonID:    anon,
		MAC:       m,
	})
	return buf
}

// NaiveProbNested is the paper's "incorrect extension": probabilistic nested
// marking with plaintext IDs. A colluding mole can read who marked and
// selectively drop packets, steering the traceback to an innocent node.
type NaiveProbNested struct {
	// P is the per-node marking probability.
	P float64
}

// Name implements Scheme.
func (NaiveProbNested) Name() string { return "naive" }

// Mark implements Scheme.
func (s NaiveProbNested) Mark(id packet.NodeID, key mac.Key, msg packet.Message, rng *rand.Rand) packet.Message {
	if rng.Float64() >= s.P {
		return msg
	}
	out := msg.Clone()
	out.Marks = append(out.Marks, packet.Mark{
		ID:  id,
		MAC: NestedMACPlain(key, msg, len(msg.Marks), id),
	})
	return out
}

// AMS is the extended Authenticated Marking Scheme baseline: probabilistic,
// plaintext IDs, per-mark MACs over the report and ID only.
type AMS struct {
	// P is the per-node marking probability. The paper's extension lets a
	// packet carry one mark per forwarding node; set P to 1 for that.
	P float64
}

// Name implements Scheme.
func (AMS) Name() string { return "ams" }

// Mark implements Scheme.
func (s AMS) Mark(id packet.NodeID, key mac.Key, msg packet.Message, rng *rand.Rand) packet.Message {
	if rng.Float64() >= s.P {
		return msg
	}
	out := msg.Clone()
	out.Marks = append(out.Marks, packet.Mark{
		ID:  id,
		MAC: AMSMAC(key, msg.Report, id),
	})
	return out
}

// PPM is plaintext probabilistic packet marking with no authentication,
// after the Internet traceback schemes that assume trustworthy routers.
type PPM struct {
	// P is the per-node marking probability.
	P float64
}

// Name implements Scheme.
func (PPM) Name() string { return "ppm" }

// Mark implements Scheme.
func (s PPM) Mark(id packet.NodeID, _ mac.Key, msg packet.Message, rng *rand.Rand) packet.Message {
	if rng.Float64() >= s.P {
		return msg
	}
	out := msg.Clone()
	out.Marks = append(out.Marks, packet.Mark{ID: id})
	return out
}

// None never marks.
type None struct{}

// Name implements Scheme.
func (None) Name() string { return "none" }

// Mark implements Scheme.
func (None) Mark(_ packet.NodeID, _ mac.Key, msg packet.Message, _ *rand.Rand) packet.Message {
	return msg
}

// New returns the scheme with the given name. p is the marking probability
// for probabilistic schemes and is ignored by deterministic ones.
func New(name string, p float64) (Scheme, error) {
	switch name {
	case "nested":
		return Nested{}, nil
	case "pnm":
		return PNM{P: p}, nil
	case "naive":
		return NaiveProbNested{P: p}, nil
	case "ams":
		return AMS{P: p}, nil
	case "ppm":
		return PPM{P: p}, nil
	case "none":
		return None{}, nil
	default:
		return nil, fmt.Errorf("marking: unknown scheme %q", name)
	}
}

// Names lists the available scheme names in a stable order.
func Names() []string {
	return []string{"nested", "pnm", "naive", "ams", "ppm", "none"}
}
