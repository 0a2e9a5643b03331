package sink

import (
	"fmt"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// Result is the outcome of verifying one packet's marks.
type Result struct {
	// Chain lists the accepted marker identities in forwarding order (most
	// upstream first). For nested schemes this is the maximal valid suffix
	// of the marks; for AMS it is every individually valid mark; for PPM it
	// is every mark at face value.
	Chain []packet.NodeID
	// Stopped reports that verification hit an invalid mark while walking
	// backwards (nested schemes only): the traceback for this packet
	// stopped at Chain[0].
	Stopped bool
}

// Verifier turns a received message into the marker chain the sink accepts.
//
// A Result's Chain may alias an arena inside the verifier instead of
// being allocated per packet. Verify recycles that arena on entry, so a
// Result's Chain is valid until the next Verify on the same verifier; a
// caller that needs a Result longer copies its Chain.
type Verifier interface {
	// Name identifies the verifier.
	Name() string
	// Verify checks msg's marks per the deployed scheme's rules, against
	// the topology snapshot named by epoch (a topology.EpochSet version
	// stamped at packet arrival; 0 is the base topology). Only anonymous
	// nested marks under a topology-restricted resolver depend on it.
	Verify(msg packet.Message, epoch topology.EpochVersion) Result
}

// VerifyAtEpoch is v.Verify(msg, epoch).
func VerifyAtEpoch(v Verifier, msg packet.Message, epoch topology.EpochVersion) Result {
	return v.Verify(msg, epoch)
}

// Instrumentable is implemented by sink objects that can bind obs metrics.
// Instrument must be called by the owning goroutine before the object
// enters service; the bound counters themselves are goroutine-safe.
type Instrumentable interface {
	Instrument(reg *obs.Registry)
}

// chainOf clips the chain arena into a standalone-looking slice: the
// capacity stops at the arena's end, so a caller append cannot write into
// the arena. An empty arena yields nil, matching what chain-collecting
// code built before the arena existed.
func chainOf(arena []packet.NodeID) []packet.NodeID {
	if len(arena) == 0 {
		return nil
	}
	return arena[:len(arena):len(arena)]
}

// NewVerifier returns the verifier matching a marking scheme. numNodes
// bounds the valid plaintext ID range; resolver is required for PNM.
func NewVerifier(s marking.Scheme, keys *mac.KeyStore, numNodes int, resolver Resolver) (Verifier, error) {
	switch s.(type) {
	case marking.Nested, marking.NaiveProbNested:
		return &NestedVerifier{keys: keys, numNodes: numNodes}, nil
	case marking.PNM:
		if resolver == nil {
			return nil, fmt.Errorf("sink: PNM verification needs a resolver")
		}
		v := &NestedVerifier{keys: keys, numNodes: numNodes, resolver: resolver}
		if tr, ok := resolver.(*TopologyResolver); ok {
			// Reader matches (Matches) are checked against the routing
			// tree the resolver searches.
			v.epochs = tr.epochs
		}
		if sc, ok := resolver.(scheduleCacher); ok {
			// The verifier calls its resolver on its own goroutine, so both
			// can hash through one cache: every node the resolver probes
			// and the verifier then MAC-checks needs one schedule, not two.
			// The verifier publishes the shared cache's hits and the
			// resolver's counts per packet.
			v.hasher = sc.shareScheduleCache()
			v.sharer = sc
		}
		return v, nil
	case marking.AMS:
		return &AMSVerifier{keys: keys, numNodes: numNodes}, nil
	case marking.PPM:
		return &PPMVerifier{numNodes: numNodes}, nil
	case marking.None:
		return &PPMVerifier{numNodes: numNodes}, nil
	default:
		return nil, fmt.Errorf("sink: no verifier for scheme %q", s.Name())
	}
}

// NestedVerifier verifies nested marks backwards: starting from the last
// mark it checks each MAC over the exact prefix the marking node received.
// The first failure stops the walk — everything upstream of a tampered mark
// is unverifiable, which is precisely the property that pins tampering to
// the mole's neighborhood.
//
// pnmlint:single-goroutine — the verifier owns a private schedule cache
// and a reusable MAC-input buffer; one goroutine owns an instance for its
// lifetime (see the package doc's Ownership section).
type NestedVerifier struct {
	keys     *mac.KeyStore
	numNodes int
	resolver Resolver // nil for plaintext-ID nested schemes

	// hasher caches per-node MAC key schedules. It is lazily built so
	// tests can construct verifiers literally; NewVerifier hands a PNM
	// verifier its resolver's hasher instead.
	hasher *mac.Hasher
	// sharer is resolver when it shares hasher (NewVerifier): publish
	// flushes its tallied counts with the hasher's.
	sharer scheduleCacher

	// enc holds the packet being verified encoded once — report, then
	// every mark — and off[k] is where mark k's encoding starts, so
	// enc[:off[k]] is exactly the prefix M_{i-1} mark k's MAC covers.
	// suffix carries the bytes MACed after that prefix (the candidate's
	// plaintext ID or the mark's anonymous ID); it lives on the verifier
	// because resolveProbe, the resolver's probe callback, reads it. Together
	// with hasher they make every MAC check allocation-free and
	// re-encoding-free.
	enc    []byte
	off    []int
	suffix [packet.AnonIDLen]byte

	// chains is the Result.Chain arena: Verify recycles it, appends the
	// packet's accepted ids and returns it capacity-clipped, so the
	// steady-state verify path allocates nothing per packet. See
	// Verifier for the recycling contract.
	chains []packet.NodeID

	// resolveFn is v.resolveProbe bound once (lazily, in Verify) so
	// anonymous-mark resolution passes the same callback value to the
	// resolver on every probe instead of allocating a closure per mark.
	// The rs* scratch fields carry the per-mark probe state the closure
	// used to capture.
	resolveFn    func(packet.NodeID) bool
	rsMAC        [packet.MACLen]byte
	rsPrefix     int
	rsFound      packet.NodeID
	rsOK         bool
	rsCandidates uint64
	// curEpoch is the arrival epoch of the packet being verified, set by
	// Verify and handed to the resolver on every probe of that packet.
	curEpoch topology.EpochVersion
	// epochs is the TopologyResolver's epoch set, nil under any other
	// resolver: the verifier takes reader matches only when it has it.
	// matches are the current packet's reader matches (nil without), and
	// matchNet is the tree of matchEpoch their membership checks walk,
	// fetched once per epoch change.
	epochs     *topology.EpochSet
	matches    []packet.NodeID
	matchEpoch topology.EpochVersion
	matchNet   *topology.Network
	// singles counts the current packet's anonymous marks that needed
	// exactly one candidate MAC — almost all of them — so Verify
	// publishes them to macCandidates in one ObserveN instead of one
	// shared atomic update per mark.
	singles uint64

	// obs bindings; nil (no-op) unless Instrument was called.
	packets       *obs.Counter
	marksVerified *obs.Counter
	stops         *obs.Counter
	macCandidates *obs.Histogram
}

// schedule returns node id's cached key schedule from the verifier's
// private hasher, creating the hasher on first use.
func (v *NestedVerifier) schedule(id packet.NodeID) mac.Schedule {
	if v.hasher == nil {
		v.ensureHasher()
	}
	return v.hasher.Schedule(id)
}

// ensureHasher lazily builds the per-verifier hasher, hoisted out of the
// noalloc kernels that inline schedule.
//
//go:noinline
func (v *NestedVerifier) ensureHasher() { v.hasher = v.keys.Hasher() }

// Name implements Verifier.
func (v *NestedVerifier) Name() string { return "nested" }

// Instrument binds the verifier's metrics into reg and propagates to the
// resolver when it is instrumentable.
func (v *NestedVerifier) Instrument(reg *obs.Registry) {
	v.packets = reg.Counter("sink.verify.packets")
	v.marksVerified = reg.Counter("sink.verify.marks_verified")
	v.stops = reg.Counter("sink.verify.stops")
	v.macCandidates = reg.Histogram("sink.verify.mac_candidates_per_mark")
	if v.hasher == nil {
		v.hasher = v.keys.Hasher()
	}
	v.hasher.Instrument(reg)
	if in, ok := v.resolver.(Instrumentable); ok {
		in.Instrument(reg)
	}
}

// Verify implements Verifier: marks resolve against the routing tree of
// the packet's arrival epoch, so honest chains survive route churn
// between injection and verification. The Result's Chain aliases the
// verifier's arena: it stays valid until the next Verify.
//
// The packet is encoded once up front; every MAC check, including each
// anonymous-ID candidate's, hashes a prefix of that encoding plus a short
// suffix. The per-mark counters are tallied locally and published once
// per packet, on either return path.
// pnmlint:noalloc
func (v *NestedVerifier) Verify(msg packet.Message, epoch topology.EpochVersion) Result {
	return v.verify(msg, epoch, nil)
}

// verify is Verify with a reader's matches for msg (nil for none): each
// anonymous mark whose match acceptMatch takes skips the resolver, and
// every other mark resolves exactly as in Verify.
// pnmlint:noalloc
func (v *NestedVerifier) verify(msg packet.Message, epoch topology.EpochVersion, m *Matches) Result {
	v.packets.Inc()
	v.curEpoch = epoch
	v.matches = nil
	if m != nil && v.epochs != nil {
		v.matches = m.ids
	}
	if v.resolver != nil && v.resolveFn == nil {
		// One-time method-value allocation, kept out of the noalloc
		// kernels below.
		v.bindResolveFn()
	}
	v.enc = msg.Report.Encode(v.enc[:0])
	v.off = v.off[:0]
	for _, mk := range msg.Marks {
		v.off = append(v.off, len(v.enc))
		v.enc = mk.Encode(v.enc)
	}
	v.singles = 0
	v.chains = v.chains[:0]
	prev := packet.SinkID
	havePrev := false
	for k := len(msg.Marks) - 1; k >= 0; k-- {
		id, ok := v.verifyMark(msg, k, prev, havePrev)
		if !ok {
			v.stops.Inc()
			v.publish()
			return Result{Chain: reverse(chainOf(v.chains)), Stopped: true}
		}
		v.chains = append(v.chains, id)
		prev, havePrev = id, true
	}
	v.publish()
	return Result{Chain: reverse(chainOf(v.chains))}
}

// publish adds the current packet's locally tallied counts to the shared
// metrics: the marks accepted into the chain arena, the single-candidate
// anonymous marks, the hasher's schedule hits and, when it shares the
// hasher, the resolver's probe, candidate and hint counts.
// pnmlint:noalloc
func (v *NestedVerifier) publish() {
	if v.sharer != nil {
		v.sharer.publish()
	}
	if n := len(v.chains); n > 0 {
		v.marksVerified.Add(uint64(n))
	}
	if v.singles > 0 {
		v.macCandidates.ObserveN(1, v.singles)
	}
	if v.hasher != nil {
		v.hasher.Publish()
	}
}

// bindResolveFn allocates the one-time resolver callback method value,
// hoisted out of Verify's noalloc body.
//
//go:noinline
func (v *NestedVerifier) bindResolveFn() { v.resolveFn = v.resolveProbe }

// verifyMark checks the mark at position k of msg, which Verify has
// encoded into v.enc, and returns the marker's real ID. It recomputes one
// SipHash-2-4 MAC per plaintext mark; an anonymous mark costs one
// AnonID (a SipHash-2-4 call) per resolution probe and one MAC per
// candidate. It runs once per mark per received packet — the sink's
// hottest path.
// pnmlint:noalloc
func (v *NestedVerifier) verifyMark(msg packet.Message, k int, prev packet.NodeID, havePrev bool) (packet.NodeID, bool) {
	mk := msg.Marks[k]
	if mk.Anonymous {
		if v.resolver == nil {
			return 0, false // anonymous mark under a plaintext scheme: invalid
		}
		if j := len(msg.Marks) - 1 - k; j < len(v.matches) && v.acceptMatch(v.matches[j], k, prev, havePrev, mk) {
			v.singles++
			return v.matches[j], true
		}
		v.rsMAC, v.rsPrefix = mk.MAC, v.off[k]
		v.rsFound, v.rsOK, v.rsCandidates = 0, false, 0
		v.suffix = mk.AnonID
		v.resolver.Resolve(msg.Report, mk.AnonID, prev, havePrev, v.curEpoch, v.resolveFn)
		if v.rsCandidates == 1 {
			v.singles++
		} else {
			v.macCandidates.Observe(v.rsCandidates)
		}
		return v.rsFound, v.rsOK
	}
	if mk.ID == packet.SinkID || int(mk.ID) > v.numNodes {
		return 0, false
	}
	v.suffix[0], v.suffix[1] = byte(mk.ID>>8), byte(mk.ID)
	if !mac.Equal(mk.MAC, v.schedule(mk.ID).Sum(v.enc[:v.off[k]], v.suffix[:2])) {
		return 0, false
	}
	return mk.ID, true
}

// acceptMatch reports whether id, a reader's match for the anonymous
// mark mk at position k, is the marker: id must lie strictly inside the
// routing subtree of prev (of the sink for the last mark) in the
// packet's arrival epoch — the candidate set the resolver would search —
// and mk's MAC must verify under id's key. Membership is a parent walk
// in the epoch's tree, so a matched mark builds no resolver tree.
// pnmlint:noalloc
func (v *NestedVerifier) acceptMatch(id packet.NodeID, k int, prev packet.NodeID, havePrev bool, mk packet.Mark) bool {
	if v.matchNet == nil || v.matchEpoch != v.curEpoch {
		v.matchEpoch, v.matchNet = v.curEpoch, v.epochs.At(v.curEpoch)
	}
	if !havePrev {
		prev = packet.SinkID
	}
	if !strictlyBelow(v.matchNet, id, prev) {
		return false
	}
	return mac.Equal(mk.MAC, v.schedule(id).Sum(v.enc[:v.off[k]], mk.AnonID[:]))
}

// strictlyBelow reports whether node v lies strictly inside a's routing
// subtree in net: both routed, v deeper than a, and a on v's root path.
// pnmlint:noalloc
func strictlyBelow(net *topology.Network, v, a packet.NodeID) bool {
	n := net.NumNodes()
	if v == packet.SinkID || int(v) > n || int(a) > n || !net.HasRoute(v) || !net.HasRoute(a) {
		return false
	}
	d, da := net.Depth(v), net.Depth(a)
	if d <= da {
		return false
	}
	for ; d > da; d-- {
		v = net.Parent(v)
	}
	return v == a
}

// resolveProbe is the resolver callback for anonymous marks: it recomputes
// the candidate's MAC over the prefix and suffix verifyMark stashed. It
// is a bound method rather than a per-mark closure so probing stays
// allocation-free.
// pnmlint:noalloc
func (v *NestedVerifier) resolveProbe(id packet.NodeID) bool {
	v.rsCandidates++
	if mac.Equal(v.rsMAC, v.schedule(id).Sum(v.enc[:v.rsPrefix], v.suffix[:])) {
		v.rsFound, v.rsOK = id, true
		return true
	}
	return false
}

// AMSVerifier verifies extended-AMS marks: each mark's MAC covers only the
// report and the marker's ID, so marks are accepted or rejected
// individually and the surviving ones keep packet order. Removal,
// re-ordering or selective dropping of upstream marks goes undetected.
//
// pnmlint:single-goroutine — owns a private schedule cache and encode
// buffer, like NestedVerifier.
type AMSVerifier struct {
	keys     *mac.KeyStore
	numNodes int

	// hasher, encBuf and chains: see NestedVerifier.
	hasher *mac.Hasher
	encBuf []byte
	chains []packet.NodeID

	// obs bindings; nil (no-op) unless Instrument was called.
	packets       *obs.Counter
	marksVerified *obs.Counter
}

// Name implements Verifier.
func (v *AMSVerifier) Name() string { return "ams" }

// Instrument binds the verifier's metrics into reg, so pnmsim -stats and
// the netsim registry cover the AMS baseline like the nested schemes.
func (v *AMSVerifier) Instrument(reg *obs.Registry) {
	v.packets = reg.Counter("sink.verify.packets")
	v.marksVerified = reg.Counter("sink.verify.marks_verified")
	if v.hasher == nil {
		v.hasher = v.keys.Hasher()
	}
	v.hasher.Instrument(reg)
}

// Verify implements Verifier. AMS marks carry plaintext IDs, so the
// epoch is ignored. The Result's Chain aliases the verifier's arena: it
// stays valid until the next Verify.
// pnmlint:noalloc
func (v *AMSVerifier) Verify(msg packet.Message, _ topology.EpochVersion) Result {
	v.packets.Inc()
	if v.hasher == nil {
		// One-time hasher construction, kept out of the noalloc loop.
		v.ensureHasher()
	}
	v.chains = v.chains[:0]
	for _, mk := range msg.Marks {
		if mk.Anonymous || mk.ID == packet.SinkID || int(mk.ID) > v.numNodes {
			continue
		}
		var want [packet.MACLen]byte
		want, v.encBuf = marking.AMSMACSched(v.hasher.Schedule(mk.ID), v.encBuf, msg.Report, mk.ID)
		if mac.Equal(mk.MAC, want) {
			v.marksVerified.Inc()
			v.chains = append(v.chains, mk.ID)
		}
	}
	v.hasher.Publish()
	return Result{Chain: chainOf(v.chains)}
}

// ensureHasher lazily builds the per-verifier hasher, hoisted out of
// Verify's noalloc body.
//
//go:noinline
func (v *AMSVerifier) ensureHasher() { v.hasher = v.keys.Hasher() }

// PPMVerifier accepts plaintext marks at face value — the Internet
// schemes' trust assumption, kept as the weakest baseline.
type PPMVerifier struct {
	numNodes int

	// chains: see NestedVerifier.
	chains []packet.NodeID

	// obs bindings; nil (no-op) unless Instrument was called.
	packets       *obs.Counter
	marksVerified *obs.Counter
}

// Name implements Verifier.
func (v *PPMVerifier) Name() string { return "ppm" }

// Instrument binds the verifier's metrics into reg. PPM checks no MACs,
// so marks_verified counts marks accepted at face value.
func (v *PPMVerifier) Instrument(reg *obs.Registry) {
	v.packets = reg.Counter("sink.verify.packets")
	v.marksVerified = reg.Counter("sink.verify.marks_verified")
}

// Verify implements Verifier. Face-value marks resolve nothing against
// the topology, so the epoch is ignored. The Result's Chain aliases the
// verifier's arena: it stays valid until the next Verify.
// pnmlint:noalloc
func (v *PPMVerifier) Verify(msg packet.Message, _ topology.EpochVersion) Result {
	v.packets.Inc()
	v.chains = v.chains[:0]
	for _, mk := range msg.Marks {
		if mk.Anonymous || mk.ID == packet.SinkID || int(mk.ID) > v.numNodes {
			continue
		}
		v.marksVerified.Inc()
		v.chains = append(v.chains, mk.ID)
	}
	return Result{Chain: chainOf(v.chains)}
}

// reverse flips a chain collected back-to-front into forwarding order.
func reverse(chain []packet.NodeID) []packet.NodeID {
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}
