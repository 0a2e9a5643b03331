// Package sink implements the sink side of traceback: mark verification,
// anonymous-ID resolution, route reconstruction via the relative-order
// matrix, identity-swap loop detection, and mole localization to a one-hop
// neighborhood.
//
// Every sink — the simulators', the transport server's, the benches' —
// runs one execution path: verify each packet against the topology epoch
// it arrived under, then fold the accepted chain into the order matrix.
// Tracker.Observe(msg, epoch) does both, and so does Host.Fold for the
// live hosts, with only the fold under its lock; a caller that keeps a
// whole batch's Results alive calls Verifier.Verify and Tracker.Fold
// instead. The one optional input is a frame's Matches: the transport
// server's connection readers each own a PathProber that matches a
// frame's anonymous marks against its Location's root path before
// queueing it, and Host.Fold hands the matches to the NestedVerifier,
// which accepts a matched node only inside the resolver's candidate set
// and only if its MAC verifies, and resolves every other mark as before.
// Matches order the sink's work and never count as evidence, so a
// verdict is the same with or without them; in-process callers pass
// none.
//
// # Ownership
//
// Tracker, the resolvers and the verifiers are single-goroutine objects:
// they carry unsynchronized mutable state (the order matrix, and
// ExhaustiveResolver's last-report anonymous-ID table), so one
// goroutine must own an instance for its lifetime. They must never be
// shared across goroutines — not even a resolver between two trackers.
// Concurrent experiments get their parallelism run-level instead: each run
// constructs its own tracker chain (see internal/parallel), which is also
// what a real deployment does — one sink, one tracker, one goroutine. A
// PathProber is single-goroutine too: each transport reader owns one, and
// only the Matches it fills cross to the folding goroutine, with the
// frame they belong to.
//
// Host is the one synchronized type. It is how the live hosts (the
// concurrent simulator and the transport server) share a sink between
// the goroutine that folds and the goroutines that read verdicts, wait
// for progress, or crash and restore the sink: the tracker sits behind
// the host's mutex, and the verifier chain belongs to the folding
// goroutine, which a Restore hands a fresh chain.
package sink

import (
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// Verdict is the sink's current traceback conclusion.
type Verdict struct {
	// HasStop reports whether any mark has been accepted at all. Without
	// marks the sink only knows its own last-hop neighbor forwarded the
	// traffic.
	HasStop bool
	// Stop is the node with the last verified MAC (the most upstream node
	// of the reconstructed route, or the loop-line intersection when a
	// loop exists). A mole — source or colluder — lies within Stop's
	// one-hop neighborhood, including Stop itself.
	Stop packet.NodeID
	// Suspects is Stop's one-hop neighborhood (Stop first) when the
	// tracker knows the topology; otherwise just {Stop}.
	Suspects []packet.NodeID
	// Loop lists the members of an identity-swapping loop, if detected.
	Loop []packet.NodeID
	// Identified reports the unequivocal-identification predicate of
	// Figures 6 and 7: the reconstructed route is loop-free and the
	// candidate source set (the order's minimal elements) has exactly one
	// member.
	Identified bool
}

// Tracker accumulates verification results across packets and produces
// verdicts. It implements the route reconstruction algorithm of §4.2.
//
// pnmlint:single-goroutine — the order matrix is unsynchronized mutable
// state; one goroutine owns an instance for its lifetime (see the package
// doc's Ownership section). The ownership analyzer enforces this.
type Tracker struct {
	verifier Verifier
	order    *Order
	topo     *topology.Network // optional; enables neighborhood suspects
	packets  int

	// obs bindings; nil (no-op) unless Instrument was called.
	obsPackets *obs.Counter
	obsChains  *obs.Counter
}

// NewTracker returns a tracker using the given verifier. topo may be nil.
func NewTracker(verifier Verifier, topo *topology.Network) *Tracker {
	return &Tracker{verifier: verifier, order: NewOrder(), topo: topo}
}

// Instrument binds the tracker's counters into reg and propagates to the
// verifier (and through it the resolver) when instrumentable. Call it from
// the owning goroutine before the tracker enters service.
func (t *Tracker) Instrument(reg *obs.Registry) {
	t.obsPackets = reg.Counter("sink.tracker.packets")
	t.obsChains = reg.Counter("sink.tracker.chains_folded")
	if in, ok := t.verifier.(Instrumentable); ok {
		in.Instrument(reg)
	}
}

// Observe verifies one received packet against the topology epoch it
// arrived under (0 for the base topology) and folds it into the route
// reconstruction. It returns the packet's verification result, whose
// Chain is valid until the next Verify on the tracker's verifier.
func (t *Tracker) Observe(msg packet.Message, epoch topology.EpochVersion) Result {
	res := t.verifier.Verify(msg, epoch)
	t.Fold(res)
	return res
}

// ResetVerifyScratch does nothing: every Verify recycles the verifier's
// chain arena itself. It stays only for the bench module's replay, which
// still calls it before each Verify.
func (t *Tracker) ResetVerifyScratch() {}

// Fold records an already-verified result into the route reconstruction,
// in the order the caller verified the packets.
func (t *Tracker) Fold(res Result) {
	t.order.AddChain(res.Chain)
	t.packets++
	t.obsPackets.Inc()
	if len(res.Chain) > 0 {
		t.obsChains.Inc()
	}
}

// Packets returns how many packets have been observed.
func (t *Tracker) Packets() int { return t.packets }

// Order exposes the accumulated order matrix (read-only use).
func (t *Tracker) Order() *Order { return t.order }

// Verdict computes the sink's current conclusion.
func (t *Tracker) Verdict() Verdict {
	var v Verdict
	if t.order.SeenCount() == 0 {
		return v
	}
	if loops := t.order.Loops(); len(loops) > 0 {
		// Identity swapping: trace to where the loop meets the line.
		v.Loop = loops[0]
		if stop, ok := t.order.MostUpstreamAfterLoop(loops[0]); ok {
			v.HasStop = true
			v.Stop = stop
		} else {
			// Everything collected is inside the loop; any member pins
			// the colluders' neighborhood. Use the loop's first member.
			v.HasStop = true
			v.Stop = loops[0][0]
		}
		v.Suspects = t.suspects(v.Stop)
		return v
	}
	minimals := t.order.Minimals()
	if len(minimals) == 0 {
		return v
	}
	v.HasStop = true
	v.Stop = minimals[0]
	v.Suspects = t.suspects(v.Stop)
	// Unequivocal identification: the candidate source set — the minimal
	// elements of the reconstructed order — has shrunk to a single node.
	// Every other collected node has a known upstream, so only one node
	// can be the origin.
	v.Identified = len(minimals) == 1
	return v
}

// Candidates returns the current candidate source set — the minimal
// elements of the reconstructed order. With several source moles injecting
// simultaneously (the paper's future-work case), each contributes one
// candidate; the isolation campaign quarantines them one at a time.
func (t *Tracker) Candidates() []packet.NodeID {
	return t.order.Minimals()
}

// suspects returns stop plus its one-hop neighbors.
func (t *Tracker) suspects(stop packet.NodeID) []packet.NodeID {
	if t.topo == nil {
		return []packet.NodeID{stop}
	}
	return t.topo.Neighborhood(stop)
}

// TraceSinglePacket runs the basic nested-marking traceback of §4.1 on one
// packet: verify backwards, stop at the last valid MAC.
func TraceSinglePacket(verifier Verifier, topo *topology.Network, msg packet.Message) Verdict {
	res := verifier.Verify(msg, 0)
	var v Verdict
	if len(res.Chain) == 0 {
		return v
	}
	v.HasStop = true
	v.Stop = res.Chain[0]
	if topo != nil {
		v.Suspects = topo.Neighborhood(v.Stop)
	} else {
		v.Suspects = []packet.NodeID{v.Stop}
	}
	v.Identified = !res.Stopped
	return v
}

// SuspectsContain reports whether the verdict's suspected neighborhood
// contains any of the given moles — the one-hop-precision property the
// security experiments assert.
func (v Verdict) SuspectsContain(moles ...packet.NodeID) bool {
	for _, s := range v.Suspects {
		for _, m := range moles {
			if s == m {
				return true
			}
		}
	}
	return false
}
