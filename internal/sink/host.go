package sink

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pnm/internal/mac"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// Host runs one sink in front of live traffic. Both live hosts, the
// concurrent simulator (internal/netsim) and the transport server
// (internal/transport), serve their sink through it. It owns the
// Tracker under one mutex, the verifier the folding goroutine checks
// marks with, the PNM2 crash checkpoint, and the delivered count with
// the progress broadcast that waiters park on.
//
// One goroutine folds (Fold, Publish). Any goroutine may read (Verdict,
// Delivered, Down, Await) or crash and restore the sink (Crash,
// Restore). The host reads no clock: Await's caller owns the timer.
type Host struct {
	newVerifier func() Verifier
	topo        *topology.Network
	reg         *obs.Registry
	// keys and epochs are the first chain's key store and epoch set,
	// which NewProber hands every reader's resolver; epochs is nil unless
	// that chain is a NestedVerifier over a TopologyResolver. Both are
	// set before the host is shared and never written again.
	keys   *mac.KeyStore
	epochs *topology.EpochSet

	// live is the serving tracker, nil while the host is down. Fold
	// loads it without the lock and verifies on the tracker's verifier,
	// which only the folding goroutine uses. Crash and Restore store it
	// under mu, so a restore hands its fresh verifier chain to the
	// folding goroutine through this one store.
	live atomic.Pointer[Tracker]

	mu sync.Mutex
	// tracker is the last tracker to serve. While the host is down it
	// is the crashed one, which Verdict still reads.
	tracker   *Tracker // pnmlint:guarded-by mu
	ckpt      []byte   // pnmlint:guarded-by mu
	delivered int      // pnmlint:guarded-by mu
	// progress is closed by the next Publish. It is made only when a
	// waiter parks, so publishing to no waiter allocates nothing.
	progress chan struct{} // pnmlint:guarded-by mu
}

// NewHost builds a live sink whose tracker runs on a chain from
// newVerifier; every Restore calls newVerifier again for its own chain.
// topo, when non-nil, lets verdicts name one-hop neighborhoods. reg,
// when non-nil, instruments each tracker and, through it, the chain.
func NewHost(newVerifier func() Verifier, topo *topology.Network, reg *obs.Registry) *Host {
	tr := NewTracker(newVerifier(), topo)
	if reg != nil {
		tr.Instrument(reg)
	}
	h := &Host{newVerifier: newVerifier, topo: topo, reg: reg, tracker: tr}
	if nv, ok := tr.verifier.(*NestedVerifier); ok {
		if r, ok := nv.resolver.(*TopologyResolver); ok {
			h.keys, h.epochs = r.keys, r.epochs
		}
	}
	h.live.Store(tr)
	return h
}

// NewProber returns a TopologyResolver for one reader goroutine to
// Probe with, over the host's verifier chain's key store and epoch set
// with a Hasher of its own. It returns nil when the chain has no routing
// tree to match against. Any goroutine may call it. The Hasher's
// schedule misses and core builds count into the host's registry with
// the sink's, so mac.schedule.core_builds stays store-wide; its hits are
// never published, since the reader counts its probes, and publishing
// would share a counter with the sink goroutine on every frame.
func (h *Host) NewProber() *TopologyResolver {
	if h.epochs == nil {
		return nil
	}
	r := NewTopologyResolverEpochs(h.keys, h.epochs)
	if h.reg != nil {
		r.hasher.Instrument(h.reg)
	}
	return r
}

// Fold verifies one frame against the topology epoch it arrived under
// and folds it into the tracker. m, when non-nil, carries a reader's
// Probe matches for the frame, which the verifier checks before
// searching. It reports false, and folds nothing, while the host is
// down or if the sink crashed during the verification. Verification
// runs outside mu, so a Verdict read waits behind one fold at most; the
// fold is Fold's one lock acquisition. Only the folding goroutine calls
// Fold.
func (h *Host) Fold(msg packet.Message, epoch topology.EpochVersion, m *Matches) bool {
	tr := h.live.Load()
	if tr == nil {
		return false
	}
	var res Result
	if nv, ok := tr.verifier.(*NestedVerifier); ok && m != nil {
		res = nv.verify(msg, epoch, m)
	} else {
		res = tr.verifier.Verify(msg, epoch)
	}
	h.mu.Lock()
	folded := h.live.Load() == tr
	if folded {
		tr.Fold(res)
	}
	h.mu.Unlock()
	return folded
}

// Publish adds n folded frames to the delivered count and wakes every
// waiter. n = 0 only wakes them, for progress the caller counts itself.
func (h *Host) Publish(n int) {
	h.mu.Lock()
	h.delivered += n
	if h.progress != nil {
		close(h.progress)
		h.progress = nil
	}
	h.mu.Unlock()
}

// Await blocks until cond holds of the delivered count and reports
// true. It re-evaluates cond after every Publish, and reports false
// once expired or stop fires first. cond runs without mu held, so it
// may also read progress state the caller keeps itself, provided every
// change to that state is followed by a Publish.
func (h *Host) Await(cond func(delivered int) bool, expired <-chan time.Time, stop <-chan struct{}) bool {
	for {
		h.mu.Lock()
		got := h.delivered
		if h.progress == nil {
			h.progress = make(chan struct{})
		}
		ch := h.progress
		h.mu.Unlock()
		if cond(got) {
			return true
		}
		select {
		case <-ch:
		case <-expired:
			return false
		case <-stop:
			return false
		}
	}
}

// Crash takes the sink down: it writes the tracker's PNM2 checkpoint,
// and Fold drops every frame until Restore. It reports whether the host
// was up; crashing a down host does nothing.
func (h *Host) Crash() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.live.Load() == nil {
		return false
	}
	h.ckpt = h.tracker.Checkpoint()
	h.live.Store(nil)
	return true
}

// Restore brings a crashed sink back on a tracker rebuilt from the crash
// checkpoint and a fresh chain from the verifier factory, instrumented
// once. Neither the order matrix nor the packet count is lost, and the
// registry-backed sink.* counters continue rather than rewind. It
// reports whether the host was down; restoring a live host does nothing.
func (h *Host) Restore() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.live.Load() != nil {
		return false
	}
	tr, err := RestoreTracker(h.ckpt, h.newVerifier(), h.topo)
	if err != nil {
		// The checkpoint is the host's own bytes; failing to read it
		// back is a programming error, not a runtime condition.
		panic(fmt.Sprintf("sink: restore from crash checkpoint: %v", err))
	}
	if h.reg != nil {
		tr.Instrument(h.reg)
	}
	h.tracker, h.ckpt = tr, nil
	h.live.Store(tr)
	return true
}

// Down reports whether the sink is crashed and not yet restored.
func (h *Host) Down() bool { return h.live.Load() == nil }

// Delivered returns the published count of folded frames.
func (h *Host) Delivered() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.delivered
}

// Verdict returns the sink's current traceback conclusion; while the
// host is down, the crashed tracker's.
func (h *Host) Verdict() Verdict {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tracker.Verdict()
}
