package mac

import (
	"math"

	"pnm/internal/obs"
	"pnm/internal/packet"
)

// schedCore is the immutable, per-key half of a key schedule: the
// subkeys K_m and K_a as SipHash's key words. Building one pays their
// two compressions; a core is never written afterwards, so KeyStore keeps
// one per node and every Hasher reads it.
type schedCore struct {
	mac  [2]uint64
	anon [2]uint64
}

// newCore derives k's schedule core: the once-per-key step.
func newCore(k Key) *schedCore {
	return &schedCore{mac: subkey(macSubkeyDomain, k), anon: subkey(anonSubkeyDomain, k)}
}

// scratch is the per-goroutine half of a key schedule: AnonID's message
// words for the last report it saw. Sum keeps no state between calls.
type scratch struct {
	// anonMsg is anonWords(anonRep): a call for the same report only ORs
	// in the ID.
	anonMsg [3]uint64
	anonRep packet.Report
}

// newScratch returns fresh scratch, holding the zero report's AnonID
// message words.
func newScratch() *scratch {
	return &scratch{anonMsg: anonWords(packet.Report{})}
}

// Schedule is a precomputed key schedule for one node key: the SipHash
// subkeys behind Sum and AnonID.
//
// Hashing from scratch pays a subkey compression on every call. The sink
// recomputes MACs and anonymous IDs for every received mark — §4.2's
// whole feasibility argument is that it can do so at line rate — so a
// schedule pairs the key's shared, immutable core (built once) with its
// goroutine's scratch. Sum and AnonID run zero-alloc and skip every
// compression; outputs are bit-identical to the package-level Sum and
// AnonID for the same key.
//
// A Schedule is a two-pointer value — the key's core and the goroutine's
// scratch — so handing one out costs no allocation; every schedule a
// Hasher returns shares its scratch.
//
// pnmlint:single-goroutine — the scratch's AnonID memo is
// unsynchronized mutable state; one goroutine owns a schedule for its
// lifetime. Hand each worker its own via KeyStore.Hasher.
type Schedule struct {
	core *schedCore
	sc   *scratch
}

// NewSchedule precomputes the key schedule for k, with its own fresh
// scratch. This is the only allocating step; a sink amortizes it with a
// Hasher, which shares one scratch across its schedules and the cores
// across goroutines via the KeyStore.
func NewSchedule(k Key) Schedule {
	return Schedule{core: newCore(k), sc: newScratch()}
}

// scheduleCore returns the store-wide shared core for id's key, building
// and caching it on first use, and whether this call built the core (for
// the caller's miss accounting). A build derives the key and its two
// subkeys under the store's lock.
func (ks *KeyStore) scheduleCore(id packet.NodeID) (*schedCore, bool) {
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
	// The core holds only the subkeys, so the key is not cached: a
	// sink-side store holds no copy of it.
	c = newCore(ks.derive(id))
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
// store-wide count of per-key derivations the sharing exists to minimize
// (at most one build per distinct node, however many workers warm up).
func (ks *KeyStore) CoreBuilds() uint64 {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.coreBuilds
}

// Sum computes the truncated marking MAC H_k(prefix ‖ suffix),
// bit-identical to the package-level Sum over the concatenation, with
// zero allocations: one SipHash-2-4 under the core's K_m, reading both
// parts in place. Taking the input in two parts lets the sink MAC a
// slice of one per-packet encoding followed by a short per-candidate
// suffix without copying either.
// pnmlint:noalloc
func (s Schedule) Sum(prefix, suffix []byte) [packet.MACLen]byte {
	return macTag(sipSum(&s.core.mac, prefix, suffix))
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
// local miss fetches the node's shared core from the store
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
	core, built := h.ks.scheduleCore(id)
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
