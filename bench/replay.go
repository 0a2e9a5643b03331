package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
	"pnm/internal/transport"
)

// verdictEvery is how many packets the replay folds between verdicts.
const verdictEvery = 256

// replayResult is the outcome of one in-process replay of a stream.
type replayResult struct {
	elapsed time.Duration
	// hash digests every packet's Result in stream order plus the final
	// verdict; verdict is that final verdict.
	hash    string
	verdict sink.Verdict
	// caughtAt is the first packet count at which the verdict's suspects
	// contain a source, or 0 if they never do.
	caughtAt int
	reg      *obs.Registry
	seen     int // distinct markers in the order matrix
	epochs   int // topology epochs the replay advanced through
	// allocBytes and gcCycles are the heap allocated and the collections
	// run while the stream was folded.
	allocBytes uint64
	gcCycles   uint32
	// retainedBytes is the heap the sink state holds once the stream is
	// folded.
	retainedBytes int64
}

// replay feeds the stream through the path the server's sink goroutine
// takes, using public calls only: FrameReader.Next decodes each frame,
// VerifyAtEpoch verifies it against its epoch, Tracker.Fold folds it,
// Tracker.Verdict runs every verdictEvery packets (and after every packet
// until the first catch, which makes caughtAt exact while it is at most
// warmPackets), and EpochSet.Advance runs at epoch boundaries. A non-nil
// tracer times each of those calls; nil leaves the path untimed.
func replay(w workload, seed int64, s *stream, t *tracer) (*replayResult, error) {
	heap0 := heapInUse()
	d, err := w.deploy(seed)
	if err != nil {
		return nil, err
	}
	set := topology.NewEpochSet(d.topo)
	var wrap func(sink.Resolver) sink.Resolver
	if t != nil {
		wrap = func(r sink.Resolver) sink.Resolver { return newTracedResolver(r, t) }
	}
	v := newVerifier(d, set, wrap)
	tracker := sink.NewTracker(v, d.topo)
	reg := obs.New()
	tracker.Instrument(reg)
	fr := transport.NewFrameReader(bytes.NewReader(s.frames), transport.Limits{})
	var msg packet.Message
	digest := sha256.New()
	out := &replayResult{reg: reg}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < s.len(); i++ {
		t.beginPacket(i)
		if e := s.epoch(i); int(e) >= set.Len() {
			t.begin(layerAdvance)
			set.Advance(s.nets[e])
			t.end()
		}
		t.begin(layerDecode)
		err := fr.Next(&msg)
		t.end()
		if err != nil {
			return nil, fmt.Errorf("replay: frame %d: %w", i, err)
		}
		tracker.ResetVerifyScratch() // as Tracker.ObserveAt does per packet
		t.begin(layerVerify)
		res := sink.VerifyAtEpoch(v, msg, s.epoch(i))
		t.end()
		t.begin(layerFold)
		tracker.Fold(res)
		t.end()
		if (out.caughtAt == 0 && i < warmPackets) || (i+1)%verdictEvery == 0 {
			t.begin(layerVerdict)
			vd := tracker.Verdict()
			t.end()
			if out.caughtAt == 0 && vd.SuspectsContain(s.sources...) {
				out.caughtAt = i + 1
			}
		}
		t.end() // the packet
		hashResult(digest, res)
	}
	out.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	out.allocBytes, out.gcCycles = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC

	out.verdict = tracker.Verdict()
	if out.caughtAt == 0 && out.verdict.SuspectsContain(s.sources...) {
		out.caughtAt = s.len()
	}
	out.hash = finishHash(digest, out.verdict)
	out.seen = tracker.Order().SeenCount()
	out.epochs = set.Len()
	out.retainedBytes = int64(heapInUse()) - int64(heap0)
	runtime.KeepAlive(tracker)
	runtime.KeepAlive(set)
	return out, nil
}

// hashResult streams one Result into a digest: the stop flag, the chain
// length, then the chain's node IDs.
func hashResult(h hash.Hash, res sink.Result) {
	var buf [4]byte
	if res.Stopped {
		buf[0] = 1
	}
	binary.BigEndian.PutUint16(buf[1:], uint16(len(res.Chain)))
	h.Write(buf[:3])
	for _, id := range res.Chain {
		binary.BigEndian.PutUint16(buf[:], uint16(id))
		h.Write(buf[:2])
	}
}

// finishHash closes a result digest with the final verdict.
func finishHash(h hash.Hash, v sink.Verdict) string {
	fmt.Fprintf(h, "verdict:%+v", v)
	return hex.EncodeToString(h.Sum(nil))
}

// layer names one span kind: a call into one layer of the sink.
type layer uint8

const (
	layerPacket    layer = iota // one packet's whole trip through the path
	layerDecode                 // transport.FrameReader.Next
	layerVerify                 // sink.VerifyAtEpoch
	layerResolve                // sink.Resolver.Resolve, inside verify
	layerCandidate              // the verifier's MAC check of one candidate, inside resolve
	layerFold                   // sink.Tracker.Fold
	layerVerdict                // sink.Tracker.Verdict
	layerAdvance                // topology.EpochSet.Advance
	numLayers
)

var layerNames = [numLayers]string{
	"packet", "transport.decode", "sink.verify", "sink.resolver",
	"sink.verify.candidate", "sink.order.fold", "sink.verdict", "topology.epochs.advance",
}

// span is one recorded call, written out as a JSON line.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a packet's root span
	Packet int    `json:"packet"`
}

// openSpan is a span still on the stack.
type openSpan struct {
	l     layer
	start int64
	child int64 // time covered by direct children so far
	rec   int   // index in tracer.spans, or -1 when not recorded
}

// maxSpanPackets caps how many packets' spans a tracer keeps, so the span
// file stays a few megabytes at any run length.
const maxSpanPackets = 4096

// tracer times every call into every layer and keeps the spans of every
// every-th packet, up to maxSpanPackets packets. Self time is a span's
// duration minus the time its direct children cover. A nil tracer does
// nothing.
type tracer struct {
	base   time.Time
	every  int
	packet int
	record bool
	stack  []openSpan
	spans  []span

	total, self [numLayers]int64
	calls       [numLayers]int64

	// firstAfterAdvance marks the next verify as the first in a new epoch,
	// the call that builds that epoch's routing tree.
	firstAfterAdvance bool
	firstVerifyNs     int64
	firstVerifies     int64
}

func newTracer(every int) *tracer {
	return &tracer{base: time.Now(), every: every}
}

func (t *tracer) beginPacket(i int) {
	if t == nil {
		return
	}
	t.packet = i
	t.record = i%t.every == 0 && i/t.every < maxSpanPackets
	t.begin(layerPacket)
}

func (t *tracer) begin(l layer) {
	if t == nil {
		return
	}
	o := openSpan{l: l, rec: -1}
	if t.record {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].rec
		}
		o.rec = len(t.spans)
		t.spans = append(t.spans, span{ID: o.rec, Name: layerNames[l], Parent: parent, Packet: t.packet})
	}
	o.start = int64(time.Since(t.base)) // last, so bookkeeping stays outside the span
	t.stack = append(t.stack, o)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.base))
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - o.start
	t.total[o.l] += d
	t.self[o.l] += d - o.child
	t.calls[o.l]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	if o.rec >= 0 {
		t.spans[o.rec].Start, t.spans[o.rec].End = o.start, now
	}
	switch {
	case o.l == layerAdvance:
		t.firstAfterAdvance = true
	case o.l == layerVerify && t.firstAfterAdvance:
		t.firstAfterAdvance = false
		t.firstVerifyNs += d
		t.firstVerifies++
	}
}

// coverage is the share of the packets' span time that the layer spans
// account for as self time.
func (t *tracer) coverage() float64 {
	var covered int64
	for l := layerDecode; l < numLayers; l++ {
		covered += t.self[l]
	}
	return float64(covered) / float64(t.total[layerPacket])
}

// writeSpans writes the recorded spans to path as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedResolver decorates the sink's resolver with spans: one per
// Resolve call, and inside it one per candidate the verifier checks.
//
// pnmlint:single-goroutine — like the resolver it wraps.
type tracedResolver struct {
	inner sink.Resolver
	t     *tracer
	// yield is the verifier's callback for the Resolve call in progress;
	// check is r.checkCandidate bound once.
	yield func(packet.NodeID) bool
	check func(packet.NodeID) bool
}

func newTracedResolver(inner sink.Resolver, t *tracer) *tracedResolver {
	r := &tracedResolver{inner: inner, t: t}
	r.check = r.checkCandidate
	return r
}

// Resolve implements sink.Resolver.
func (r *tracedResolver) Resolve(report packet.Report, anon [packet.AnonIDLen]byte, prev packet.NodeID, havePrev bool, epoch topology.EpochVersion, yield func(packet.NodeID) bool) {
	r.t.begin(layerResolve)
	r.yield = yield
	r.inner.Resolve(report, anon, prev, havePrev, epoch, r.check)
	r.yield = nil
	r.t.end()
}

func (r *tracedResolver) checkCandidate(id packet.NodeID) bool {
	r.t.begin(layerCandidate)
	ok := r.yield(id)
	r.t.end()
	return ok
}

// Instrument implements sink.Instrumentable by binding the wrapped
// resolver's counters.
func (r *tracedResolver) Instrument(reg *obs.Registry) {
	if in, ok := r.inner.(sink.Instrumentable); ok {
		in.Instrument(reg)
	}
}
