package marking

import (
	"math/rand"

	"pnm/internal/mac"
	"pnm/internal/packet"
)

// Incremental marks a message hop by hop while maintaining the encoded
// prefix, so each nested MAC hashes an already-built buffer instead of a
// clone of the whole upstream message re-encoded at every hop. It runs
// the same kernel as Scheme.Mark on that buffer, so it is identical to
// calling the scheme's Mark at every hop — the equivalence is
// property-tested. Each MAC still covers the whole received prefix, so
// a path of n hops hashes O(n²) bytes either way; what Incremental saves
// is the per-hop clone and re-encode (BenchmarkIncrementalVsNaive at 30
// hops on a 2-vCPU Xeon: 10–13 µs and 11 allocs/op, against 35–43 µs
// and 61 allocs/op for per-hop Mark).
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

// Apply runs scheme s at node id: it flips s's coin and, when it lands,
// appends s's mark through the kernel onto the encoding it keeps, exactly
// as s.Mark would.
func (inc *Incremental) Apply(s Scheme, id packet.NodeID, key mac.Key, rng *rand.Rand) {
	if r := s.rule(); r.marks(rng) {
		inc.buf = appendMark(r.format, markKey{node: key}, inc.buf, &inc.msg, id)
	}
}
