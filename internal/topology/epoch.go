package topology

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Epoch versioning: a dynamic network is a sequence of immutable routing
// snapshots. Every route repair (Reroute), parent reshuffle (Rewire) or
// mobility step produces a new *Network; wrapping each one in an Epoch
// with a monotonically increasing version lets the sink resolve a
// packet's marks against the tree the packet was actually forwarded
// under, instead of the tree the sink was configured with at start-up.
//
// Ownership and determinism rules (DESIGN.md §14): an EpochSet is
// internally synchronized — sink-side readers (the resolvers of every
// verifier chain built over it) share one set with the single writer
// that applies topology changes. Versions are dense and only advance,
// starting at 0 for the base topology, so a version is an identity: a
// packet stamped with version v always resolves against the same
// snapshot, on any worker, in any run, for as long as the set holds v.

// EpochVersion identifies one topology snapshot. Version 0 is the base
// topology a network started with; every change increments it by one.
type EpochVersion uint64

// Epoch pairs a routing snapshot with its version.
type Epoch struct {
	Version EpochVersion
	Net     *Network
}

// EpochSet is the sequence of topology epochs a dynamic network has
// lived through. The zero value is unusable; construct with NewEpochSet.
// Methods are safe for concurrent use: the writer side (Advance) is
// expected to be serialized by the caller's own fault or mobility
// machinery, while readers (At, Current, Stamp, Done) may run on any
// goroutine.
//
// The set retains exactly the window from the oldest pinned epoch to the
// current one, and only the current epoch when nothing is pinned. A host
// that will resolve an item at an older epoch stamps it on arrival (Stamp
// pins the current epoch) and hands the pin back when the item leaves
// (Done); whenever the oldest epochs before the current one hold no pins,
// the set releases them. The pin is holder-agnostic: a queued frame holds
// it (transport.Server, netsim), as does a logged packet (ChurnBench); an
// evidence stamp that outlives its frame can keep the frame's pin instead
// of handing it back, and return it through Done when the evidence
// retires.
type EpochSet struct {
	mu sync.RWMutex
	// low is the version of nets[0]; every version below it is released.
	low EpochVersion // pnmlint:guarded-by mu
	// nets are the retained snapshots: nets[i] is version low+i, and the
	// last one is the current epoch.
	nets []*Network // pnmlint:guarded-by mu
	// pins[i] counts the stamps on version low+i not yet handed back.
	// Under the read lock its elements change only atomically; its length
	// changes only under the write lock.
	pins []int32 // pnmlint:guarded-by mu

	unpinned   atomic.Uint64 // stamps handed back through Done
	staleReads atomic.Uint64 // At calls for a released version
}

// NewEpochSet returns a set whose epoch 0 is the given base topology.
func NewEpochSet(base *Network) *EpochSet {
	return &EpochSet{nets: []*Network{base}, pins: []int32{0}}
}

// Advance appends net as the next epoch and returns it. Calling Advance
// with the same *Network as the current epoch still creates a new epoch:
// a route repair that happens to restore the original tree is still a
// topology change, and packets forwarded before and after it carry
// different versions. The epoch it supersedes is released at once if no
// stamp pins it or anything older.
func (s *EpochSet) Advance(net *Network) Epoch {
	s.mu.Lock()
	s.nets = append(s.nets, net)
	s.pins = append(s.pins, 0)
	ep := Epoch{Version: s.low + EpochVersion(len(s.nets)-1), Net: net}
	s.mu.Unlock()
	s.release()
	return ep
}

// Current returns the newest epoch.
func (s *EpochSet) Current() Epoch {
	s.mu.RLock()
	defer s.mu.RUnlock()
	last := len(s.nets) - 1
	return Epoch{Version: s.low + EpochVersion(last), Net: s.nets[last]}
}

// At returns the snapshot for version v. A version from the future
// (possible only through a corrupted stamp) clamps to the current epoch
// rather than failing, so resolution degrades to the newest tree instead
// of crashing the sink. A released version — below the low-water mark,
// which only a read that holds no stamp on it can name — clamps to the
// oldest retained epoch and is counted (EpochStats.StaleReads). Either
// clamp can only lose evidence: a wrong tree hides the true marker from
// the search, while the MAC under the candidate's key still decides every
// identity, so no relation is ever added.
func (s *EpochSet) At(v EpochVersion) *Network {
	s.mu.RLock()
	defer s.mu.RUnlock()
	switch {
	case v < s.low:
		s.staleReads.Add(1)
		return s.nets[0]
	case v-s.low >= EpochVersion(len(s.nets)):
		return s.nets[len(s.nets)-1]
	}
	return s.nets[v-s.low]
}

// Len returns how many epochs the set has advanced through, the base
// counting as one, whether or not they are still retained.
func (s *EpochSet) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int(s.low) + len(s.nets)
}

// Stamp pins the current epoch and returns its version: the set retains
// that epoch until a matching Done. It takes the read lock once and
// allocates nothing.
// pnmlint:noalloc
func (s *EpochSet) Stamp() EpochVersion {
	s.mu.RLock()
	defer s.mu.RUnlock()
	last := len(s.nets) - 1
	atomic.AddInt32(&s.pins[last], 1)
	return s.low + EpochVersion(last)
}

// Done hands back n stamps of version v, each taken by Stamp. When the
// oldest retained epoch loses its last pin and is not the current one,
// it is released, together with every newer epoch before the current one
// that holds no pins. Handing back more stamps than were taken is a
// programming error and panics, as a negative sync.WaitGroup counter
// does: the set could otherwise release an epoch a live stamp names.
// pnmlint:noalloc
func (s *EpochSet) Done(v EpochVersion, n int) {
	if n <= 0 {
		return
	}
	s.mu.RLock()
	if v < s.low || v-s.low >= EpochVersion(len(s.pins)) {
		s.mu.RUnlock()
		panic(fmt.Sprintf("topology: Done(%d, %d) on an epoch no stamp pins", v, n)) //pnmlint:allow noalloc the message of a programming-error panic
	}
	i := int(v - s.low)
	left := atomic.AddInt32(&s.pins[i], -int32(n))
	oldest := i == 0 && len(s.nets) > 1
	s.mu.RUnlock()
	if left < 0 {
		panic(fmt.Sprintf("topology: epoch %d handed back %d more stamps than it had", v, -left)) //pnmlint:allow noalloc the message of a programming-error panic
	}
	s.unpinned.Add(uint64(n))
	if left == 0 && oldest {
		s.release()
	}
}

// release drops the oldest epochs before the current one that hold no
// pins. It compacts the window in place, so a set whose window stays
// within its high-water size advances and releases without allocating;
// a window that has shrunk far below its arrays (the end of a backlog)
// moves to fresh ones instead, so the arrays stay proportional to the
// window.
func (s *EpochSet) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := 0
	for k < len(s.nets)-1 && s.pins[k] == 0 {
		k++
	}
	if k == 0 {
		return
	}
	n := len(s.nets) - k
	if cap(s.nets) > 2*n+8 {
		s.nets = append([]*Network(nil), s.nets[k:]...)
		s.pins = append([]int32(nil), s.pins[k:]...)
	} else {
		copy(s.nets, s.nets[k:])
		clear(s.nets[n:])
		s.nets = s.nets[:n]
		copy(s.pins, s.pins[k:])
		s.pins = s.pins[:n]
	}
	s.low += EpochVersion(k)
}

// EpochStats is an EpochSet's bookkeeping at one instant.
type EpochStats struct {
	// Advanced is Len: the epochs ever held, the base counting as one.
	Advanced int
	// Retained is how many epochs the set still holds; always 1 or more.
	Retained int
	// Pinned counts the stamps not yet handed back; Unpinned the stamps
	// Done has handed back.
	Pinned   int
	Unpinned uint64
	// StaleReads counts At calls for a released version.
	StaleReads uint64
}

// Stats returns the set's bookkeeping.
func (s *EpochSet) Stats() EpochStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := EpochStats{
		Advanced:   int(s.low) + len(s.nets),
		Retained:   len(s.nets),
		Unpinned:   s.unpinned.Load(),
		StaleReads: s.staleReads.Load(),
	}
	for i := range s.pins {
		st.Pinned += int(atomic.LoadInt32(&s.pins[i]))
	}
	return st
}
