package mac

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"reflect"

	"pnm/internal/obs"
	"pnm/internal/packet"
)

// blockSize is SHA-256's compression block size, the key-block length.
const blockSize = 64

// chainOff is where a marshaled SHA-256 state keeps the 32-byte chaining
// value: right after the 4-byte format magic. absorbKeyBlock checks every
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

// stateAppender is encoding.BinaryAppender, spelled out because go.mod
// admits toolchains older than Go 1.24, whose SHA-256 digest lacks it.
// Appending into a buffer of the right size allocates nothing.
type stateAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// stateTemplate is the marshaled state of a SHA-256 digest that has
// absorbed exactly one 64-byte block: magic, chaining value, an empty
// block buffer and a length of 64. Every key-absorbed state (the MAC
// key block, HMAC's pad blocks) has this shape and differs
// from it only in the 32 chaining bytes. A scratch digest is unmarshaled
// from it once; after that, the schedule writes only whole blocks, so
// the buffer stays empty and a restore rewrites just the eight state
// words.
var stateTemplate = func() []byte {
	d := sha256.New().(marshalingHash)
	d.Write(make([]byte, blockSize))
	st, err := d.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("mac: marshal sha256 state: %v", err))
	}
	return st
}()

// schedCore is the immutable, per-key half of a key schedule: the
// SHA-256 chaining value after absorbing the marking-MAC key block, as
// the digest's state words so a restore is one 32-byte store, and the
// AnonID subkey K_a as SipHash's two key words. Building one pays two
// compressions, the key block's and K_a's; a core is never written
// afterwards, so KeyStore keeps one per node and every Hasher reads it.
type schedCore struct {
	mac  [8]uint32
	anon [2]uint64
}

// buildCore absorbs k's MAC key block into c on the scratch's digest,
// with the block laid out in its tail, and derives k's AnonID subkey —
// the once-per-key step. It then clears the tail, so the scratch keeps
// nothing of k: the state words and the marshal buffer end on c's MAC
// chaining value, which is not the key.
func (sc *scratch) buildCore(c *schedCore, k Key) {
	block := sc.tail[:blockSize]
	macKeyBlock(block, k)
	sc.absorbKeyBlock(&c.mac, block)
	clear(block)
	c.anon = anonSubkey(k)
}

// absorbKeyBlock hashes one 64-byte block from SHA-256's initial value on
// the scratch digest and stores the resulting state words in dst: a core's
// MAC key block, or one of HMAC's pad blocks. It is the
// per-core half of the layout guard, run on the reused digest: the
// digest's marshaled state (marshalState) must equal
// stateTemplate everywhere but the chaining bytes (one block written,
// nothing buffered, length 64), and the state words digestWords reads in
// place must equal those chaining bytes. A Go release that changed either
// layout would therefore fail every MAC test at once rather than corrupt
// verdicts; newScratch checks the restore itself. Reset leaves the
// digest as UnmarshalBinary(stateTemplate) would once the block is in:
// nothing buffered, so restores keep working afterwards.
func (sc *scratch) absorbKeyBlock(dst *[8]uint32, block []byte) {
	sc.h.Reset()
	sc.h.Write(block)
	st, err := sc.marshalState()
	if err != nil {
		panic(fmt.Sprintf("mac: marshal sha256 state: %v", err))
	}
	end := chainOff + sha256.Size
	if len(st) != len(stateTemplate) ||
		!bytes.Equal(st[:chainOff], stateTemplate[:chainOff]) ||
		!bytes.Equal(st[end:], stateTemplate[end:]) {
		panic("mac: unexpected sha256 marshaled-state layout")
	}
	*dst = *sc.words
	var words [sha256.Size]byte
	putWords(words[:], dst)
	if !bytes.Equal(words[:], st[chainOff:end]) {
		panic("mac: sha256 state words disagree with the marshaled state")
	}
}

// marshalState returns the digest's marshaled state, appended into the
// scratch's buffer where the digest has AppendBinary (Go 1.24 and later),
// else from MarshalBinary, which allocates.
func (sc *scratch) marshalState() ([]byte, error) {
	if a, ok := sc.h.(stateAppender); ok {
		return a.AppendBinary(sc.state[:0])
	}
	return sc.h.MarshalBinary()
}

// digestWords returns a pointer to d's eight live SHA-256 state words.
// After a padded final block they are the hash, as big-endian words. The
// stdlib exposes them only through MarshalBinary and AppendBinary, which
// allocate: always, and under -race respectively (an instrumented build
// does not elide the make that AppendBinary appends). So the schedule
// reads them in place. d must point to a struct whose first field is
// [8]uint32, and absorbKeyBlock checks the words against the marshaled
// state.
func digestWords(d hash.Hash) *[8]uint32 {
	v := reflect.ValueOf(d)
	t := v.Type()
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct || t.Elem().NumField() == 0 ||
		t.Elem().Field(0).Offset != 0 || t.Elem().Field(0).Type != reflect.TypeFor[[8]uint32]() {
		panic("mac: unexpected sha256 digest layout")
	}
	return (*[8]uint32)(v.UnsafePointer())
}

// putWords writes the leading len(dst)/4 state words of w to dst,
// big-endian: all eight for a full hash, fewer when a caller keeps only
// a truncated one.
// pnmlint:noalloc
func putWords(dst []byte, w *[8]uint32) {
	for i := range len(dst) / 4 {
		binary.BigEndian.PutUint32(dst[4*i:], w[i])
	}
}

// scratch is the per-goroutine half of a key schedule: one reusable
// digest and the blocks Sum feeds it, and AnonID's message words. The
// calls run one after the other, so one scratch serves them all.
//
// Every Write hands the digest whole 64-byte blocks, message padding
// included, so the digest's own buffering and Sum's padding and copies
// never run: after the last block the digest's state words are the hash,
// and restoring a key-absorbed state is a store into those words.
type scratch struct {
	h     marshalingHash
	words *[8]uint32 // h's state words, read and restored in place (digestWords)
	// state is the marshal buffer absorbKeyBlock appends h's state into,
	// sized for stateTemplate.
	state []byte

	// tail holds the MAC message's last partial block and its padding,
	// and the blocks a key derivation or a core build compresses.
	tail [2 * blockSize]byte
	// anonMsg is anonWords(anonRep), the AnonID message words of the last
	// report seen: a call for the same report only ORs in the ID.
	anonMsg [3]uint64
	anonRep packet.Report
}

// newScratch returns fresh scratch: a digest unmarshaled from
// stateTemplate, so its block buffer is empty and its length field reads
// one block, a marshal buffer, and the zero report's AnonID message
// words. It runs the restore half of the layout guard on the digest
// first.
func newScratch() *scratch {
	h := sha256.New().(marshalingHash)
	sc := &scratch{h: h, words: digestWords(h), state: make([]byte, 0, len(stateTemplate))}
	sc.checkRestore()
	if err := h.UnmarshalBinary(stateTemplate); err != nil {
		panic(fmt.Sprintf("mac: unmarshal sha256 state: %v", err))
	}
	sc.anonMsg = anonWords(sc.anonRep)
	return sc
}

// checkRestore is the restore half of the layout guard: after the digest
// has taken an unrelated block, a word-copy restore of the template's
// chaining value (the state after one zero block) followed by one padded
// whole block must leave sha256.Sum256(zero block ‖ message) in the state
// words. A Go release that buffered whole-block writes, kept state outside
// the words, or moved them would fail it, and with it every MAC test, at
// once.
func (sc *scratch) checkRestore() {
	var chain [8]uint32
	for i := range chain {
		chain[i] = binary.BigEndian.Uint32(stateTemplate[chainOff+4*i:])
	}
	for i := range blockSize {
		sc.tail[i] = 0x5c
	}
	sc.h.Write(sc.tail[:blockSize])
	sc.restore(&chain)
	msg := []byte("pnm/mac restore guard")
	n := copy(sc.tail[:], msg)
	sc.h.Write(sc.tail[:padBlocks(sc.tail[:], n, blockSize+n)])
	var got [sha256.Size]byte
	putWords(got[:], sc.words)
	if got != sha256.Sum256(append(make([]byte, blockSize), msg...)) {
		panic("mac: sha256 digest does not restore by its state words")
	}
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

// restore resets the digest to the key-absorbed state with chaining value
// chain: one 32-byte store into its state words. The block buffer is
// already empty, because every Write since newScratch's UnmarshalBinary
// was whole blocks; the length field is stale, but only the digest's own
// Sum reads it, and the schedule never calls that.
// pnmlint:noalloc
func (sc *scratch) restore(chain *[8]uint32) {
	*sc.words = *chain
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

// Schedule is a precomputed key schedule for one node key: the keyed
// SHA-256 cascade behind Sum and the SipHash subkey behind AnonID.
//
// Hashing from scratch pays a key compression on every call: the key
// block's for Sum, the subkey's for AnonID. The sink recomputes MACs and
// anonymous IDs for every received mark — §4.2's whole feasibility
// argument is that it can do so at line rate — so a schedule pairs the
// key's shared, immutable core (built once) with its goroutine's scratch
// digest, which each Sum restores to the core's chaining value. Sum and
// AnonID run zero-alloc and skip every key compression; outputs are
// bit-identical to the package-level Sum and AnonID for the same key.
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

// NewSchedule precomputes the key schedule for k, absorbing it on the
// schedule's own fresh scratch. This is the only allocating step; a sink
// amortizes it with a Hasher, which shares one scratch across its
// schedules and the key-absorbed cores across goroutines via the
// KeyStore.
func NewSchedule(k Key) Schedule {
	s := Schedule{core: new(schedCore), sc: newScratch()}
	s.sc.buildCore(s.core, k)
	return s
}

// scheduleCore returns the store-wide shared core for id's key, building
// and caching it on first use, and whether this call built the core (for
// the caller's miss accounting). A build derives the key and absorbs it
// on sc, the caller's scratch.
func (ks *KeyStore) scheduleCore(id packet.NodeID, sc *scratch) (*schedCore, bool) {
	ks.mu.RLock()
	var c *schedCore
	if int(id) < len(ks.cores) {
		c = ks.cores[id]
	}
	ks.mu.RUnlock()
	if c != nil {
		return c, false
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.cores = growTo(ks.cores, id)
	if c := ks.cores[id]; c != nil {
		return c, false
	}
	// The core absorbs the key, so the key is not cached, and buildCore
	// clears it from sc: a sink-side store holds no copy of it.
	c = new(schedCore)
	sc.buildCore(c, ks.derive(sc, id))
	ks.cores[id] = c
	ks.coreBuilds++
	return c, true
}

// growTo returns a NodeID-indexed table that covers index id: t itself
// when it already does, else a copy grown geometrically, by a quarter of
// its length or to cover id, whichever is longer, rounded up to a
// multiple of 64 and capped at the NodeID space. A warm-up over N
// ascending IDs then grows each table O(log N) times and copies O(N)
// entries, and a table stays within a quarter (and 64 entries) of its
// largest ID, well under twice it.
func growTo[T any](t []T, id packet.NodeID) []T {
	if int(id) < len(t) {
		return t
	}
	n := max(len(t)+len(t)/4, int(id)+1)
	grown := make([]T, min(((n-1)|63)+1, math.MaxUint16+1))
	copy(grown, t)
	return grown
}

// CoreBuilds reports how many schedule cores the store has built — the
// store-wide count of per-key compressions the sharing exists to minimize
// (at most one build per distinct node, however many workers warm up).
func (ks *KeyStore) CoreBuilds() uint64 {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.coreBuilds
}

// Sum computes the truncated marking MAC H_k(prefix ‖ suffix),
// bit-identical to the package-level Sum over the concatenation, with
// zero allocations: restore the key block's chaining value, write the
// length word, absorb the message in whole blocks, then its padded tail.
// Taking the input in two parts lets the sink MAC a slice of one
// per-packet encoding followed by a short per-candidate suffix without
// copying either. Both slices reach the digest through an interface
// call, so they must not point at the caller's stack.
// pnmlint:noalloc
func (s Schedule) Sum(prefix, suffix []byte) [packet.MACLen]byte {
	sc := s.sc
	msgLen := len(prefix) + len(suffix)
	sc.restore(&s.core.mac)
	binary.BigEndian.PutUint32(sc.tail[:macLenLen], uint32(msgLen))
	n := sc.absorb(macLenLen, prefix)
	n = sc.absorb(n, suffix)
	sc.h.Write(sc.tail[:padBlocks(sc.tail[:], n, blockSize+macLenLen+msgLen)])
	var out [packet.MACLen]byte
	putWords(out[:], s.sc.words)
	return out
}

// AnonID computes the per-message anonymous ID i' = H'_k(M | i),
// bit-identical to the package-level AnonID for the schedule's key, with
// zero allocations: one SipHash-2-4 over three message words under the
// core's subkey. The scratch keeps the words of the last report it saw:
// a probe for the same report only ORs in the ID, and a new report
// re-encodes them.
// pnmlint:noalloc
func (s Schedule) AnonID(report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
	sc := s.sc
	if report != sc.anonRep {
		sc.anonRep, sc.anonMsg = report, anonWords(report)
	}
	return anonHash(&s.core.anon, &sc.anonMsg, id)
}

// Hasher is a goroutine-local table of per-node key schedules over a
// KeyStore. The KeyStore itself is synchronized and shared freely; the
// Hasher's one scratch is not, so each goroutine that verifies MACs (a
// sink, each run of a run-parallel experiment) holds its own Hasher. A
// local miss fetches the node's shared key-absorbed core from the store
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
	// pendingHits counts Schedule's table hits since the last Publish: a
	// plain field, because a hit is the common case of every probe and
	// MAC.
	pendingHits uint64

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
// Misses and core builds are counted as they happen; hits reach
// mac.schedule.hits only when the owner calls Publish.
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
			h.pendingHits++
			return Schedule{core: c, sc: h.sc}
		}
	}
	return h.build(id)
}

// Publish adds the schedule hits tallied since the previous call to
// mac.schedule.hits: one atomic update per publication boundary (a
// verifier's packet) instead of one per MAC.
// pnmlint:noalloc
func (h *Hasher) Publish() {
	if h.pendingHits > 0 {
		h.hits.Add(h.pendingHits)
		h.pendingHits = 0
	}
}

// build is Schedule's miss path: it records the store's shared core for
// id, growing the table to cover id.
func (h *Hasher) build(id packet.NodeID) Schedule {
	h.misses.Inc()
	core, built := h.ks.scheduleCore(id, h.sc)
	if built {
		h.coreBuilds.Inc()
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
