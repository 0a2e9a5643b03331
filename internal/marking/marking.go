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
// Each scheme states one rule — its coin and its mark format — and one
// kernel appends every mark, so Scheme.Mark, the incremental encoder,
// PNM.MarkSched and the moles' forged marks agree by construction.
package marking

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"pnm/internal/mac"
	"pnm/internal/packet"
)

// Scheme is the per-hop marking behaviour a forwarding node runs. Every
// scheme states one mark rule — its coin and its mark format — and every
// marking path (Mark, Incremental, PNM.MarkSched, Forge) appends marks
// through the one kernel, appendMark. The interface is sealed: the rule
// is unexported, so all schemes live in this package.
type Scheme interface {
	// Name identifies the scheme ("pnm", "nested", ...).
	Name() string
	// Mark produces the message node id sends to its next hop given the
	// message it received. rng drives probabilistic marking decisions.
	// It never mutates msg.
	Mark(id packet.NodeID, key mac.Key, msg packet.Message, rng *rand.Rand) packet.Message
	rule() rule
}

// format is how a scheme writes the mark it appends.
type format uint8

const (
	// plainNested is ID i and H_k(M_{i-1} | i) over the whole received
	// message: nested, naive and, for forged marks, none.
	plainNested format = iota
	// anonNested is i' = H'_k(M | i) and H_k(M_{i-1} | i'): pnm.
	anonNested
	// amsMAC is ID i and H_k(M | i) over the report alone: ams.
	amsMAC
	// bareID is ID i with a zero MAC: ppm.
	bareID
)

// rule is a scheme's one mark rule: its coin and its mark format.
type rule struct {
	format format
	// p and drawn are the coin. A probabilistic scheme marks when one
	// rng.Float64() draw falls below p, so a p of NaN or below 0 never
	// marks and one of 1 or more always does. A deterministic scheme
	// (drawn false) draws nothing and marks when p is 1.
	p     float64
	drawn bool
}

// marks flips r's coin.
func (r rule) marks(rng *rand.Rand) bool {
	if !r.drawn {
		return r.p == 1
	}
	return rng.Float64() < r.p
}

// markKey is a marker's key in either form the kernel hashes under: a
// node's cold mac.Key, from which each hash derives its subkey as a
// sensor does (one for a plaintext mark, two for an anonymous one), or
// a sink-side mac.Schedule, which caches both. Both give the same bytes.
type markKey struct {
	node  mac.Key
	sched mac.Schedule
	warm  bool
}

// sum is H_k over data, whose first split bytes are the message part
// and the rest the appended suffix.
// pnmlint:noalloc
func (k markKey) sum(data []byte, split int) [packet.MACLen]byte {
	if k.warm {
		return k.sched.Sum(data[:split], data[split:])
	}
	return mac.Sum(k.node, data)
}

// anonID is H'_k(M | i).
// pnmlint:noalloc
func (k markKey) anonID(report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
	if k.warm {
		return k.sched.AnonID(report, id)
	}
	return mac.AnonID(k.node, report, id)
}

// macRoom is the longest MAC input the kernel appends past a message,
// AMS's report and ID: a buffer with this much spare room past the
// encoding takes every format's mark without growing.
const macRoom = packet.ReportLen + 2

// appendMark is the kernel every marking path runs: it appends node id's
// mark in format f to *msg, whose encoding enc holds, and returns enc
// with the mark's encoding appended. The MAC input is built in enc's
// room past the message, then overwritten by the mark.
// pnmlint:noalloc
func appendMark(f format, k markKey, enc []byte, msg *packet.Message, id packet.NodeID) []byte {
	n := len(enc)
	mk := packet.Mark{ID: id}
	switch f {
	case plainNested:
		enc = binary.BigEndian.AppendUint16(enc, uint16(id))
		mk.MAC = k.sum(enc, n)
	case anonNested:
		mk = packet.Mark{Anonymous: true, AnonID: k.anonID(msg.Report, id)}
		enc = append(enc, mk.AnonID[:]...)
		mk.MAC = k.sum(enc, n)
	case amsMAC:
		enc = appendAMSInput(enc, msg.Report, id)
		mk.MAC = k.sum(enc[n:], packet.ReportLen)
	}
	msg.Marks = append(msg.Marks, mk)
	return mk.Encode(enc[:n])
}

// appendAMSInput appends the extended-AMS MAC input M | i: the report
// and the marking node's ID, never upstream marks — the structural
// weakness §3 exploits.
// pnmlint:noalloc
func appendAMSInput(dst []byte, report packet.Report, id packet.NodeID) []byte {
	return binary.BigEndian.AppendUint16(report.Encode(dst), uint16(id))
}

// AMSMACSched computes the extended-AMS MAC H_k(M | i) on node id's
// cached schedule, with buf as encode scratch, and returns the MAC and
// the (possibly grown) buffer for the caller to reuse: the sink's AMS
// verifier recomputes one per received mark.
// pnmlint:noalloc
func AMSMACSched(s mac.Schedule, buf []byte, report packet.Report, id packet.NodeID) ([packet.MACLen]byte, []byte) {
	buf = appendAMSInput(buf[:0], report, id)
	return s.Sum(buf[:packet.ReportLen], buf[packet.ReportLen:]), buf
}

// mark is every Scheme.Mark: flip r's coin, then append the mark.
func mark(r rule, id packet.NodeID, key mac.Key, msg packet.Message, rng *rand.Rand) packet.Message {
	if !r.marks(rng) {
		return msg
	}
	return appendTo(r.format, id, key, msg)
}

// appendTo clones msg with room for one more mark, encodes it with room
// for the MAC input, and runs the kernel on the copy.
func appendTo(f format, id packet.NodeID, key mac.Key, msg packet.Message) packet.Message {
	out := packet.Message{Report: msg.Report, Marks: make([]packet.Mark, len(msg.Marks), len(msg.Marks)+1)}
	copy(out.Marks, msg.Marks)
	appendMark(f, markKey{node: key}, msg.Encode(make([]byte, 0, msg.WireSize()+macRoom)), &out, id)
	return out
}

// Forge appends the mark node id leaves under s to a copy of msg without
// flipping s's coin: the valid mark a mole holding id's key — its own or
// a colluder's — leaves in the deployed scheme's format. Under None,
// which deploys no marks, the forged mark takes the plaintext nested
// format.
func Forge(s Scheme, id packet.NodeID, key mac.Key, msg packet.Message) packet.Message {
	return appendTo(s.rule().format, id, key, msg)
}

// Fake returns a mark in s's format that a mole lacking the claimed
// node's key inserts: it claims id — a random ID in [1, 2^15] when id is
// packet.SinkID — or, in PNM's anonymous format, a random anonymous ID,
// and its MAC is a guess. PPM's marks carry no MAC, so its fakes are as
// valid as real ones.
func Fake(s Scheme, id packet.NodeID, rng *rand.Rand) packet.Mark {
	f := s.rule().format
	var mk packet.Mark
	switch {
	case f == anonNested:
		mk.Anonymous = true
		rng.Read(mk.AnonID[:])
	case id == packet.SinkID:
		mk.ID = packet.NodeID(1 + rng.Intn(1<<15))
	default:
		mk.ID = id
	}
	rng.Read(mk.MAC[:])
	if f == bareID {
		mk.MAC = [packet.MACLen]byte{}
	}
	return mk
}

// Nested is the basic nested marking scheme: deterministic, plaintext IDs,
// nested MACs. Every packet carries the complete path.
type Nested struct{}

// Name implements Scheme.
func (Nested) Name() string { return "nested" }

func (Nested) rule() rule { return rule{format: plainNested, p: 1} }

// Mark implements Scheme.
func (s Nested) Mark(id packet.NodeID, key mac.Key, msg packet.Message, rng *rand.Rand) packet.Message {
	return mark(s.rule(), id, key, msg, rng)
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

func (s PNM) rule() rule { return rule{format: anonNested, p: s.P, drawn: true} }

// Mark implements Scheme.
func (s PNM) Mark(id packet.NodeID, key mac.Key, msg packet.Message, rng *rand.Rand) packet.Message {
	return mark(s.rule(), id, key, msg, rng)
}

// MarkSched is Mark on the marker's cached schedule: it flips the same
// coin, appends the mark to msg in place (no clone) and reuses buf as
// encode scratch, returning it for the next call — the allocation-free
// path load generators drive per send. For equal inputs the appended
// mark is byte-identical to Mark's.
// pnmlint:noalloc
func (s PNM) MarkSched(sched mac.Schedule, buf []byte, msg *packet.Message, id packet.NodeID, rng *rand.Rand) []byte {
	r := s.rule()
	if !r.marks(rng) {
		return buf
	}
	return appendMark(r.format, markKey{sched: sched, warm: true}, msg.Encode(buf[:0]), msg, id)
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

func (s NaiveProbNested) rule() rule { return rule{format: plainNested, p: s.P, drawn: true} }

// Mark implements Scheme.
func (s NaiveProbNested) Mark(id packet.NodeID, key mac.Key, msg packet.Message, rng *rand.Rand) packet.Message {
	return mark(s.rule(), id, key, msg, rng)
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

func (s AMS) rule() rule { return rule{format: amsMAC, p: s.P, drawn: true} }

// Mark implements Scheme.
func (s AMS) Mark(id packet.NodeID, key mac.Key, msg packet.Message, rng *rand.Rand) packet.Message {
	return mark(s.rule(), id, key, msg, rng)
}

// PPM is plaintext probabilistic packet marking with no authentication,
// after the Internet traceback schemes that assume trustworthy routers.
type PPM struct {
	// P is the per-node marking probability.
	P float64
}

// Name implements Scheme.
func (PPM) Name() string { return "ppm" }

func (s PPM) rule() rule { return rule{format: bareID, p: s.P, drawn: true} }

// Mark implements Scheme.
func (s PPM) Mark(id packet.NodeID, key mac.Key, msg packet.Message, rng *rand.Rand) packet.Message {
	return mark(s.rule(), id, key, msg, rng)
}

// None never marks.
type None struct{}

// Name implements Scheme.
func (None) Name() string { return "none" }

func (None) rule() rule { return rule{format: plainNested} }

// Mark implements Scheme.
func (s None) Mark(id packet.NodeID, key mac.Key, msg packet.Message, rng *rand.Rand) packet.Message {
	return mark(s.rule(), id, key, msg, rng)
}

// New returns the scheme with the given name. p is the marking probability
// for probabilistic schemes and is ignored by deterministic ones; it must
// lie in [0, 1] whatever the scheme.
func New(name string, p float64) (Scheme, error) {
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("marking: probability %v outside [0, 1]", p)
	}
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
