package marking

import (
	"encoding/binary"
	"math/rand"

	"pnm/internal/mac"
	"pnm/internal/packet"
)

// Incremental marks a message hop by hop while maintaining the encoded
// prefix, so each nested MAC hashes an already-built buffer instead of a
// clone of the whole upstream message re-encoded at every hop.
// Semantically identical to calling a Scheme's Mark at every hop — the
// equivalence is property-tested. Each MAC still covers the whole
// received prefix, so a path of n hops hashes O(n²) bytes either way;
// what Incremental saves is the per-hop clone and re-encode
// (BenchmarkIncrementalVsNaive at 30 hops on a 2-vCPU Xeon: 24–27 µs and
// 11 allocs/op, against 117–138 µs and 182 allocs/op for per-hop Mark).
// A Mica2-class forwarder only ever appends to the packet it received,
// which is exactly what this models.
type Incremental struct {
	msg packet.Message
	buf []byte
}

// NewIncremental starts a marking chain for one injected report.
func NewIncremental(rep packet.Report) *Incremental {
	inc := &Incremental{msg: packet.Message{Report: rep}}
	inc.buf = rep.Encode(inc.buf)
	return inc
}

// Resume continues a marking chain from an already-marked message (e.g.
// after a mole tampered with it and the cached prefix is stale).
func Resume(msg packet.Message) *Incremental {
	inc := &Incremental{msg: msg.Clone()}
	inc.buf = msg.Encode(nil)
	return inc
}

// Message returns the current message (marks appended so far).
func (inc *Incremental) Message() packet.Message {
	return inc.msg.Clone()
}

// WireSize returns the current encoded size.
func (inc *Incremental) WireSize() int { return len(inc.buf) }

// MarkPlain appends a plaintext-ID nested mark for node id.
func (inc *Incremental) MarkPlain(id packet.NodeID, key mac.Key) {
	var idb [2]byte
	binary.BigEndian.PutUint16(idb[:], uint16(id))
	sum := mac.Sum(key, append(inc.buf, idb[:]...))
	mk := packet.Mark{ID: id, MAC: sum}
	inc.msg.Marks = append(inc.msg.Marks, mk)
	inc.buf = mk.Encode(inc.buf)
}

// MarkAnon appends an anonymous-ID nested mark for node id (PNM format).
func (inc *Incremental) MarkAnon(id packet.NodeID, key mac.Key) {
	anon := mac.AnonID(key, inc.msg.Report, id)
	sum := mac.Sum(key, append(inc.buf, anon[:]...))
	mk := packet.Mark{Anonymous: true, AnonID: anon, MAC: sum}
	inc.msg.Marks = append(inc.msg.Marks, mk)
	inc.buf = mk.Encode(inc.buf)
}

// Apply runs one scheme decision at node id: deterministic schemes always
// mark, probabilistic ones consult rng, exactly as Scheme.Mark does.
// Schemes without nested MACs (AMS, PPM) fall back to the generic path.
func (inc *Incremental) Apply(s Scheme, id packet.NodeID, key mac.Key, rng *rand.Rand) {
	switch sc := s.(type) {
	case Nested:
		inc.MarkPlain(id, key)
	case NaiveProbNested:
		if rng.Float64() < sc.P {
			inc.MarkPlain(id, key)
		}
	case PNM:
		if rng.Float64() < sc.P {
			inc.MarkAnon(id, key)
		}
	default:
		out := s.Mark(id, key, inc.msg, rng)
		if len(out.Marks) > len(inc.msg.Marks) {
			mk := out.Marks[len(out.Marks)-1]
			inc.msg.Marks = append(inc.msg.Marks, mk)
			inc.buf = mk.Encode(inc.buf)
		}
	}
}
