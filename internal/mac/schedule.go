package mac

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"reflect"

	"pnm/internal/obs"
	"pnm/internal/packet"
)

// blockSize is SHA-256's compression block size, the HMAC pad length.
const blockSize = 64

// chainOff is where a marshaled SHA-256 state keeps the 32-byte chaining
// value: right after the 4-byte format magic. absorbPad checks every
// state it reads against this layout.
const chainOff = 4

// marshalingHash is the capability set the schedule needs from the stdlib
// SHA-256 digest: hashing plus state snapshot/restore. crypto/sha256's
// digest has implemented both marshaling directions since Go 1.8.
type marshalingHash interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// stateTemplate is the marshaled state of a SHA-256 digest that has
// absorbed exactly one 64-byte block: magic, chaining value, an empty
// block buffer and a length of 64. Every pad-absorbed HMAC state has this
// shape and differs from it only in the 32 chaining bytes, so a schedule
// stores just those bytes and restores a state by writing them into a
// copy of the template.
var stateTemplate = func() []byte {
	d := sha256.New().(marshalingHash)
	d.Write(make([]byte, blockSize))
	st, err := d.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("mac: marshal sha256 state: %v", err))
	}
	return st
}()

// schedCore is the immutable, per-key half of an HMAC-SHA256 key schedule:
// the SHA-256 chaining values after absorbing key⊕ipad and key⊕opad.
// Building one pays the two pad compressions; a core is never written
// afterwards, so KeyStore keeps one per node and every Hasher reads it.
type schedCore struct {
	inner, outer [sha256.Size]byte
}

// newSchedCore absorbs k's HMAC pads — the expensive, once-per-key step.
func newSchedCore(k Key) *schedCore {
	var pad [blockSize]byte
	copy(pad[:], k[:])
	for i := range pad {
		pad[i] ^= 0x36
	}
	c := new(schedCore)
	absorbPad(&c.inner, pad[:])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c // flip ipad to opad
	}
	absorbPad(&c.outer, pad[:])
	return c
}

// absorbPad hashes one pad block and stores the resulting chaining value
// in dst. It is also the layout guard, on every core build: the digest's
// marshaled state must equal stateTemplate everywhere but the chaining
// bytes, or restoring from the template would silently compute wrong
// MACs, and the state words digestWords reads in place must equal those
// chaining bytes, or every hot-path read would. A Go release that changed
// either layout would therefore fail every MAC test at once rather than
// corrupt verdicts.
func absorbPad(dst *[sha256.Size]byte, pad []byte) {
	d := sha256.New().(marshalingHash)
	d.Write(pad)
	st, err := d.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("mac: marshal sha256 state: %v", err))
	}
	end := chainOff + len(dst)
	if len(st) != len(stateTemplate) ||
		!bytes.Equal(st[:chainOff], stateTemplate[:chainOff]) ||
		!bytes.Equal(st[end:], stateTemplate[end:]) {
		panic("mac: unexpected sha256 marshaled-state layout")
	}
	copy(dst[:], st[chainOff:end])
	var words [sha256.Size]byte
	putWords(words[:], digestWords(d))
	if words != *dst {
		panic("mac: sha256 state words disagree with the marshaled state")
	}
}

// digestWords returns a pointer to d's eight live SHA-256 state words.
// After a padded final block they are the hash, as big-endian words. The
// stdlib exposes them only through MarshalBinary and AppendBinary, which
// allocate: always, and under -race respectively (an instrumented build
// does not elide the make that AppendBinary appends). So the schedule
// reads them in place. d must point to a struct whose first field is
// [8]uint32, and absorbPad checks the words against the marshaled state.
func digestWords(d hash.Hash) *[8]uint32 {
	v := reflect.ValueOf(d)
	t := v.Type()
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct || t.Elem().NumField() == 0 ||
		t.Elem().Field(0).Offset != 0 || t.Elem().Field(0).Type != reflect.TypeFor[[8]uint32]() {
		panic("mac: unexpected sha256 digest layout")
	}
	return (*[8]uint32)(v.UnsafePointer())
}

// putWords writes the state words w to dst, big-endian.
// pnmlint:noalloc
func putWords(dst []byte, w *[8]uint32) {
	for i, x := range w {
		binary.BigEndian.PutUint32(dst[4*i:], x)
	}
}

// scratch is the per-goroutine half of a key schedule: one reusable
// digest, a private copy of stateTemplate to restore it from, and the
// blocks the two HMAC passes feed it. The inner and outer passes run one
// after the other, so one digest and one template serve both.
//
// Every Write hands the digest whole 64-byte blocks, message padding
// included, so the digest's own buffering and Sum's padding and copies
// never run: after the last block the digest's state words are the hash.
type scratch struct {
	h     marshalingHash
	words *[8]uint32 // h's state words, read in place (digestWords)
	state []byte     // stateTemplate copy; chaining bytes rewritten per restore

	// tail holds the inner message's last partial block and its padding.
	tail [2 * blockSize]byte
	// outer is the outer pass's only block: the 32-byte inner digest,
	// then padding for a 64 + 32 byte message, fixed at construction.
	outer [blockSize]byte
	// anon is the padded AnonID inner block for report anonRep; a call
	// for the same report rewrites only the two ID bytes.
	anon    [blockSize]byte
	anonRep packet.Report
	// sum is the last HMAC's output.
	sum [sha256.Size]byte
}

// newScratch returns fresh scratch: a digest, a template copy, and the
// outer and AnonID blocks with their padding in place.
func newScratch() *scratch {
	h := sha256.New().(marshalingHash)
	sc := &scratch{h: h, words: digestWords(h), state: bytes.Clone(stateTemplate)}
	padBlocks(sc.outer[:], sha256.Size, blockSize+sha256.Size)
	copy(sc.anon[:], anonDomain)
	sc.anonRep.Encode(sc.anon[:anonReportOff])
	padBlocks(sc.anon[:], anonMsgLen, blockSize+anonMsgLen)
	return sc
}

// padBlocks writes SHA-256's padding for a msgLen-byte message into b
// after the n message bytes already there — 0x80, zeros, and the
// big-endian bit length — and returns the padded length, blockSize or
// 2*blockSize. n < blockSize, and b must hold the returned length.
// pnmlint:noalloc
func padBlocks(b []byte, n, msgLen int) int {
	end := blockSize
	if n >= blockSize-8 {
		end = 2 * blockSize
	}
	b[n] = 0x80
	clear(b[n+1 : end-8])
	binary.BigEndian.PutUint64(b[end-8:end], uint64(msgLen)<<3)
	return end
}

// restore resets the digest to the pad-absorbed state with chaining value
// chain: a 32-byte copy into the template, then UnmarshalBinary.
// pnmlint:noalloc
func (sc *scratch) restore(chain *[sha256.Size]byte) {
	copy(sc.state[chainOff:], chain[:])
	_ = sc.h.UnmarshalBinary(sc.state)
}

// absorb feeds p to the digest after the n bytes pending in tail: whole
// blocks go straight from p, a completed tail block is written, and the
// rest is left in tail. It returns the new pending count, below
// blockSize.
// pnmlint:noalloc
func (sc *scratch) absorb(n int, p []byte) int {
	if n > 0 {
		k := copy(sc.tail[n:blockSize], p)
		if n += k; n < blockSize {
			return n
		}
		sc.h.Write(sc.tail[:blockSize])
		p = p[k:]
	}
	if whole := len(p) &^ (blockSize - 1); whole > 0 {
		sc.h.Write(p[:whole])
		p = p[whole:]
	}
	return copy(sc.tail[:], p)
}

// outerPass finishes an HMAC whose padded inner message has been written:
// it writes the inner digest into the outer block and hashes that block
// under the restored outer state. The result aliases sc.sum.
// pnmlint:noalloc
func (sc *scratch) outerPass(outer *[sha256.Size]byte) []byte {
	putWords(sc.outer[:sha256.Size], sc.words)
	sc.restore(outer)
	sc.h.Write(sc.outer[:])
	putWords(sc.sum[:], sc.words)
	return sc.sum[:]
}

// Schedule is a precomputed HMAC-SHA256 key schedule for one node key.
//
// A fresh hmac.New(sha256.New, key) pays two pad compressions (ipad and
// opad) and several allocations on every Sum. The sink recomputes MACs for
// every received mark — §4.2's whole feasibility argument is that it can
// do so at line rate — so a schedule pairs the key's shared, immutable
// pad-absorbed chaining values (built once) with its goroutine's scratch
// digest, which each call restores to those values. Sum and AnonID run
// zero-alloc and skip both pad compressions; outputs are bit-identical to
// the package-level Sum and AnonID for the same key.
//
// A Schedule is a two-pointer value — the key's core and the goroutine's
// scratch — so handing one out costs no allocation; every schedule a
// Hasher returns shares its scratch.
//
// pnmlint:single-goroutine — the scratch digest and buffers are
// unsynchronized mutable state; one goroutine owns a schedule for its
// lifetime. Hand each worker its own via KeyStore.Hasher.
type Schedule struct {
	core *schedCore
	sc   *scratch
}

// NewSchedule precomputes the key schedule for k, with its own scratch.
// This is the only allocating step; a sink amortizes it with a Hasher,
// which shares one scratch across its schedules and the pad-absorbed
// cores across goroutines via the KeyStore.
func NewSchedule(k Key) Schedule {
	return Schedule{core: newSchedCore(k), sc: newScratch()}
}

// scheduleCore returns the store-wide shared core for id's key, building
// and caching it on first use, along with the store's current schedule
// epoch and whether this call built the core (for the caller's miss
// accounting).
func (ks *KeyStore) scheduleCore(id packet.NodeID) (*schedCore, uint64, bool) {
	ks.mu.RLock()
	var c *schedCore
	if int(id) < len(ks.cores) {
		c = ks.cores[id]
	}
	epoch := ks.epoch
	ks.mu.RUnlock()
	if c != nil {
		return c, epoch, false
	}
	k := ks.Key(id) // takes ks.mu itself; derive before the write lock
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.cores = growTo(ks.cores, id)
	if c := ks.cores[id]; c != nil {
		return c, ks.epoch, false
	}
	c = newSchedCore(k)
	ks.cores[id] = c
	ks.coreBuilds++
	return c, ks.epoch, true
}

// growTo returns a core table that covers index id: t itself when it
// already does, else a copy grown to the next multiple of 64 past id. Not
// doubling keeps a table that sees a few nodes of a large ID space no
// longer than its largest ID.
func growTo(t []*schedCore, id packet.NodeID) []*schedCore {
	if int(id) < len(t) {
		return t
	}
	grown := make([]*schedCore, (int(id)|63)+1)
	copy(grown, t)
	return grown
}

// InvalidateSchedules drops every cached schedule core and bumps the
// schedule epoch, so each Hasher discards its local schedules the next
// time it misses — the hook a future key-rotation path needs. Hashers
// that never miss again keep serving their cached (now stale) schedules;
// rotation must therefore pair this with retiring the old verifier
// chains, which is how the sink already rebuilds after crash/restore.
func (ks *KeyStore) InvalidateSchedules() {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	clear(ks.cores)
	ks.epoch++
}

// CoreBuilds reports how many schedule cores the store has built — the
// store-wide pad-compression count the sharing exists to minimize (at
// most one per distinct node per epoch, however many workers warm up).
func (ks *KeyStore) CoreBuilds() uint64 {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.coreBuilds
}

// Sum computes the truncated marking MAC H_k(prefix ‖ suffix),
// bit-identical to the package-level Sum over the concatenation, with
// zero allocations. Taking the input in two parts lets the sink MAC a
// slice of one per-packet encoding followed by a short per-candidate
// suffix without copying either. Both slices reach the digest through an
// interface call, so they must not point at the caller's stack.
// pnmlint:noalloc
func (s Schedule) Sum(prefix, suffix []byte) [packet.MACLen]byte {
	var out [packet.MACLen]byte
	copy(out[:], s.hmac(prefix, suffix))
	return out
}

// AnonID computes the per-message anonymous ID i' = H'_k(M | i),
// bit-identical to the package-level AnonID for the schedule's key, with
// zero allocations. Its 36-byte inner message always fits one padded
// block, which the scratch keeps for the last report it saw: a probe for
// the same report patches the two ID bytes, and a new report re-encodes
// the block.
// pnmlint:noalloc
func (s Schedule) AnonID(report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
	sc := s.sc
	if report != sc.anonRep {
		sc.anonRep = report
		report.Encode(sc.anon[:anonReportOff])
	}
	binary.BigEndian.PutUint16(sc.anon[anonIDOff:], uint16(id))
	sc.restore(&s.core.inner)
	sc.h.Write(sc.anon[:])
	var out [packet.AnonIDLen]byte
	copy(out[:], sc.outerPass(&s.core.outer))
	return out
}

// hmac runs the full HMAC over prefix ‖ suffix: restore the inner state,
// absorb the message in whole blocks, write its padded tail, then run the
// outer pass. The returned slice aliases the scratch and is valid until
// the scratch's next call.
// pnmlint:noalloc
func (s Schedule) hmac(prefix, suffix []byte) []byte {
	sc := s.sc
	sc.restore(&s.core.inner)
	n := sc.absorb(0, prefix)
	n = sc.absorb(n, suffix)
	sc.h.Write(sc.tail[:padBlocks(sc.tail[:], n, blockSize+len(prefix)+len(suffix))])
	return sc.outerPass(&s.core.outer)
}

// Hasher is a goroutine-local table of per-node key schedules over a
// KeyStore. The KeyStore itself is synchronized and shared freely; the
// Hasher's one scratch is not, so each goroutine that verifies MACs (a
// sink, each run of a run-parallel experiment) holds its own Hasher. A
// local miss fetches the node's shared pad-absorbed core from the store
// (built at most once per node store-wide, however many Hashers share
// it) and records a pointer to it; Schedule pairs that core with the
// Hasher's scratch.
//
// pnmlint:single-goroutine — the schedule table and the scratch are
// unsynchronized; one goroutine owns a Hasher for its lifetime.
type Hasher struct {
	ks *KeyStore
	sc *scratch
	// cores is indexed by NodeID (nil = not fetched yet) and grows on
	// demand to the largest ID seen: node IDs are dense, and an indexed
	// load is cheaper than a map lookup on every probe.
	cores []*schedCore
	epoch uint64 // KeyStore schedule epoch the table was filled under

	// obs bindings; nil (no-op) unless Instrument was called.
	hits       *obs.Counter
	misses     *obs.Counter
	coreBuilds *obs.Counter
}

// Hasher returns a new, empty schedule table over the store's keys, with
// its own scratch. Each goroutine must take its own.
func (ks *KeyStore) Hasher() *Hasher {
	return &Hasher{ks: ks, sc: newScratch()}
}

// Instrument binds the cache's counters (mac.schedule.hits / .misses /
// .core_builds) into reg. Call it from the owning goroutine before use.
func (h *Hasher) Instrument(reg *obs.Registry) {
	h.hits = reg.Counter("mac.schedule.hits")
	h.misses = reg.Counter("mac.schedule.misses")
	h.coreBuilds = reg.Counter("mac.schedule.core_builds")
}

// Schedule returns node id's key schedule, fetching the store's shared
// core on first use. The hot path is one indexed load — no lock, no
// allocation; the miss path lives in build.
// pnmlint:noalloc
func (h *Hasher) Schedule(id packet.NodeID) Schedule {
	if int(id) < len(h.cores) {
		if c := h.cores[id]; c != nil {
			h.hits.Inc()
			return Schedule{core: c, sc: h.sc}
		}
	}
	return h.build(id)
}

// build is Schedule's miss path: it records the store's shared core for
// id, growing the table to cover id. A store epoch bump
// (InvalidateSchedules) is noticed here and drops the local table
// wholesale.
func (h *Hasher) build(id packet.NodeID) Schedule {
	h.misses.Inc()
	core, epoch, built := h.ks.scheduleCore(id)
	if built {
		h.coreBuilds.Inc()
	}
	if epoch != h.epoch {
		// The store invalidated its schedules since this table was
		// filled: every local entry may be a stale core.
		clear(h.cores)
		h.epoch = epoch
	}
	h.cores = growTo(h.cores, id)
	h.cores[id] = core
	return Schedule{core: core, sc: h.sc}
}

// Sum computes H_k(data) under node id's key via the cached schedule.
// pnmlint:noalloc
func (h *Hasher) Sum(id packet.NodeID, data []byte) [packet.MACLen]byte {
	return h.Schedule(id).Sum(data, nil)
}

// AnonID computes node id's anonymous ID for report via the cached
// schedule.
// pnmlint:noalloc
func (h *Hasher) AnonID(id packet.NodeID, report packet.Report) [packet.AnonIDLen]byte {
	return h.Schedule(id).AnonID(report, id)
}
