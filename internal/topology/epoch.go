package topology

import "sync"

// Epoch versioning: a dynamic network is a sequence of immutable routing
// snapshots. Every route repair (Reroute), parent reshuffle (Rewire) or
// mobility step produces a new *Network; wrapping each one in an Epoch
// with a monotonically increasing version lets the sink resolve a
// packet's marks against the tree the packet was actually forwarded
// under, instead of the tree the sink was configured with at start-up.
//
// Ownership and determinism rules (DESIGN.md §14): an EpochSet is
// append-only and internally synchronized — sink-side readers (the
// resolvers of every verifier chain built over it) share one set with
// the single writer that applies topology changes. Versions are dense, starting at 0 for
// the base topology, so a version is both an identity and an index; a
// packet stamped with version v always resolves against the same
// snapshot, on any worker, in any run.

// EpochVersion identifies one topology snapshot. Version 0 is the base
// topology a network started with; every change increments it by one.
type EpochVersion uint64

// Epoch pairs a routing snapshot with its version.
type Epoch struct {
	Version EpochVersion
	Net     *Network
}

// EpochSet is the append-only sequence of topology epochs a dynamic
// network has lived through. The zero value is unusable; construct with
// NewEpochSet. Methods are safe for concurrent use: the writer side
// (Advance) is expected to be serialized by the caller's own fault or
// mobility machinery, while readers (At, Current) may run on any
// goroutine.
type EpochSet struct {
	mu     sync.RWMutex
	epochs []Epoch // pnmlint:guarded-by mu
}

// NewEpochSet returns a set whose epoch 0 is the given base topology.
func NewEpochSet(base *Network) *EpochSet {
	return &EpochSet{epochs: []Epoch{{Version: 0, Net: base}}}
}

// Advance appends net as the next epoch and returns it. Calling Advance
// with the same *Network as the current epoch still creates a new epoch:
// a route repair that happens to restore the original tree is still a
// topology change, and packets forwarded before and after it carry
// different versions.
func (s *EpochSet) Advance(net *Network) Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep := Epoch{Version: EpochVersion(len(s.epochs)), Net: net}
	s.epochs = append(s.epochs, ep)
	return ep
}

// Current returns the newest epoch.
func (s *EpochSet) Current() Epoch {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epochs[len(s.epochs)-1]
}

// At returns the snapshot for version v. Versions are dense, so this is
// an index lookup; a version from the future (possible only through a
// corrupted stamp) clamps to the current epoch rather than failing, so
// resolution degrades to the newest tree instead of crashing the sink.
func (s *EpochSet) At(v EpochVersion) *Network {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(v) >= len(s.epochs) {
		return s.epochs[len(s.epochs)-1].Net
	}
	return s.epochs[v].Net
}

// Len returns how many epochs the set holds (the base counts as one).
func (s *EpochSet) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.epochs)
}
