package mac

import (
	"crypto/sha256"
	"encoding"
	"fmt"
	"hash"

	"pnm/internal/obs"
	"pnm/internal/packet"
)

// blockSize is SHA-256's compression block size, the HMAC pad length.
const blockSize = 64

// marshalingHash is the capability set the schedule needs from the stdlib
// SHA-256 digest: hashing plus state snapshot/restore. crypto/sha256's
// digest has implemented both marshaling directions since Go 1.8.
type marshalingHash interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// Schedule is a precomputed HMAC-SHA256 key schedule for one node key.
//
// A fresh hmac.New(sha256.New, key) pays two pad compressions (ipad and
// opad) and several allocations on every Sum. The sink recomputes MACs for
// every received mark — §4.2's whole feasibility argument is that it can
// do so at line rate — so the schedule absorbs each pad into a SHA-256
// state exactly once, snapshots both states via the digest's binary
// marshaling, and restores them per call into two reusable digests. After
// construction, Sum and AnonID run zero-alloc and skip both pad
// compressions; outputs are bit-identical to the package-level Sum and
// AnonID for the same key.
//
// pnmlint:single-goroutine — the reusable digests and buffers are
// unsynchronized mutable state; one goroutine owns a schedule for its
// lifetime. Hand each worker its own via KeyStore.Hasher.
type Schedule struct {
	inner, outer []byte // marshaled pad-absorbed SHA-256 states
	ih, oh       marshalingHash
	buf          []byte // reusable digest output, cap sha256.Size
	enc          []byte // reusable AnonID input buffer
}

// schedCore is the immutable, shareable half of a key schedule: the two
// marshaled pad-absorbed SHA-256 states. Building one pays the ipad and
// opad compressions; everything else in a Schedule is cheap per-goroutine
// scratch. A core is never written after construction, so KeyStore caches
// one per node and hands the same core to every Hasher.
type schedCore struct {
	inner, outer []byte
}

// newSchedCore absorbs k's HMAC pads — the expensive, once-per-key step.
func newSchedCore(k Key) schedCore {
	var pad [blockSize]byte
	copy(pad[:], k[:])
	for i := range pad {
		pad[i] ^= 0x36
	}
	ih := sha256.New().(marshalingHash)
	ih.Write(pad[:])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c // flip ipad to opad
	}
	oh := sha256.New().(marshalingHash)
	oh.Write(pad[:])
	inner, err := ih.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("mac: marshal inner sha256 state: %v", err))
	}
	outer, err := oh.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("mac: marshal outer sha256 state: %v", err))
	}
	return schedCore{inner: inner, outer: outer}
}

// newScheduleFromCore wraps a shared core in fresh single-goroutine
// scratch (digests and buffers) — no pad compressions, no hashing.
func newScheduleFromCore(c schedCore) *Schedule {
	return &Schedule{
		inner: c.inner,
		outer: c.outer,
		ih:    sha256.New().(marshalingHash),
		oh:    sha256.New().(marshalingHash),
		buf:   make([]byte, 0, sha256.Size),
		enc:   make([]byte, 0, len(anonDomain)+packet.ReportLen+2),
	}
}

// NewSchedule precomputes the key schedule for k. This is the only
// allocating step; amortize it by caching schedules per key (see Hasher,
// which additionally shares the pad-absorbed cores across goroutines via
// the KeyStore).
func NewSchedule(k Key) *Schedule {
	return newScheduleFromCore(newSchedCore(k))
}

// scheduleCore returns the store-wide shared core for id's key, building
// and caching it on first use, along with the store's current schedule
// epoch and whether this call built the core (for the caller's miss
// accounting).
func (ks *KeyStore) scheduleCore(id packet.NodeID) (schedCore, uint64, bool) {
	ks.mu.RLock()
	c, ok := ks.cores[id]
	epoch := ks.epoch
	ks.mu.RUnlock()
	if ok {
		return c, epoch, false
	}
	k := ks.Key(id) // takes ks.mu itself; derive before the write lock
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if c, ok := ks.cores[id]; ok {
		return c, ks.epoch, false
	}
	c = newSchedCore(k)
	ks.cores[id] = c
	ks.coreBuilds++
	return c, ks.epoch, true
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

// Sum computes the truncated marking MAC H_k(data), bit-identical to the
// package-level Sum for the schedule's key, with zero allocations.
// pnmlint:noalloc
func (s *Schedule) Sum(data []byte) [packet.MACLen]byte {
	_ = s.ih.UnmarshalBinary(s.inner)
	s.ih.Write(data)
	var out [packet.MACLen]byte
	copy(out[:], s.finish())
	return out
}

// AnonID computes the per-message anonymous ID i' = H'_k(M | i),
// bit-identical to the package-level AnonID for the schedule's key, with
// zero allocations.
// pnmlint:noalloc
func (s *Schedule) AnonID(report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
	_ = s.ih.UnmarshalBinary(s.inner)
	s.enc = append(s.enc[:0], anonDomain...)
	s.enc = report.Encode(s.enc)
	s.enc = append(s.enc, byte(id>>8), byte(id))
	s.ih.Write(s.enc)
	var out [packet.AnonIDLen]byte
	copy(out[:], s.finish())
	return out
}

// finish completes the HMAC: finalize the inner digest, then hash its
// output under the restored outer state. The returned slice aliases the
// schedule's reusable buffer and is valid until the next call.
// pnmlint:noalloc
func (s *Schedule) finish() []byte {
	s.buf = s.ih.Sum(s.buf[:0])
	_ = s.oh.UnmarshalBinary(s.outer)
	s.oh.Write(s.buf)
	s.buf = s.oh.Sum(s.buf[:0])
	return s.buf
}

// Hasher is a goroutine-local cache of per-node key schedules over a
// KeyStore. The KeyStore itself is synchronized and shared freely; the
// schedules are not, so each goroutine that verifies MACs (a sink
// pipeline worker, a cluster shard, a resolver) holds its own Hasher. A
// local miss fetches the node's shared pad-absorbed core from the store
// (built at most once per node store-wide, whatever the worker count)
// and wraps it in private scratch, so per-goroutine warmup costs two
// digest constructions instead of two SHA-256 pad compressions.
//
// pnmlint:single-goroutine — the schedule table and the schedules
// themselves are unsynchronized; one goroutine owns a Hasher for its
// lifetime.
type Hasher struct {
	ks *KeyStore
	// schedules is indexed by NodeID (nil = not built yet) and grows on
	// demand to the largest ID seen: node IDs are dense, and an indexed
	// load is cheaper than a map lookup on every probe.
	schedules []*Schedule
	epoch     uint64 // KeyStore schedule epoch the cache was filled under

	// obs bindings; nil (no-op) unless Instrument was called.
	hits       *obs.Counter
	misses     *obs.Counter
	coreBuilds *obs.Counter
}

// Hasher returns a new, empty schedule cache over the store's keys. Each
// goroutine must take its own.
func (ks *KeyStore) Hasher() *Hasher {
	return &Hasher{ks: ks}
}

// Instrument binds the cache's counters (mac.schedule.hits / .misses /
// .core_builds) into reg. Call it from the owning goroutine before use.
func (h *Hasher) Instrument(reg *obs.Registry) {
	h.hits = reg.Counter("mac.schedule.hits")
	h.misses = reg.Counter("mac.schedule.misses")
	h.coreBuilds = reg.Counter("mac.schedule.core_builds")
}

// Schedule returns node id's cached key schedule, building it around the
// store's shared core on first use. The hot path is one indexed load —
// no lock, no allocation; the miss path lives in build.
// pnmlint:noalloc
func (h *Hasher) Schedule(id packet.NodeID) *Schedule {
	if int(id) < len(h.schedules) {
		if s := h.schedules[id]; s != nil {
			h.hits.Inc()
			return s
		}
	}
	return h.build(id)
}

// build is Schedule's miss path: it wraps the store's shared core for id
// in private scratch, growing the table to cover id. A store epoch bump
// (InvalidateSchedules) is noticed here and drops the local cache
// wholesale.
func (h *Hasher) build(id packet.NodeID) *Schedule {
	h.misses.Inc()
	core, epoch, built := h.ks.scheduleCore(id)
	if built {
		h.coreBuilds.Inc()
	}
	if epoch != h.epoch {
		// The store invalidated its schedules since this cache was
		// filled: every local schedule may wrap a stale core.
		clear(h.schedules)
		h.epoch = epoch
	}
	if int(id) >= len(h.schedules) {
		// Grow to the next multiple of 64 past id, not by doubling: a
		// sink that hashes a few nodes of a large ID space keeps a table
		// no longer than its largest ID.
		grown := make([]*Schedule, (int(id)|63)+1)
		copy(grown, h.schedules)
		h.schedules = grown
	}
	s := newScheduleFromCore(core)
	h.schedules[id] = s
	return s
}

// Sum computes H_k(data) under node id's key via the cached schedule.
// pnmlint:noalloc
func (h *Hasher) Sum(id packet.NodeID, data []byte) [packet.MACLen]byte {
	return h.Schedule(id).Sum(data)
}

// AnonID computes node id's anonymous ID for report via the cached
// schedule.
// pnmlint:noalloc
func (h *Hasher) AnonID(id packet.NodeID, report packet.Report) [packet.AnonIDLen]byte {
	return h.Schedule(id).AnonID(report, id)
}
