package sink

import (
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/parallel"
	"pnm/internal/topology"
)

// Pipeline verifies batches of received messages across a pool of workers
// and folds the results into the single-goroutine Tracker in arrival
// order. It is the sink-side answer to §4.2's feasibility argument: mark
// verification is per-packet pure (a packet's Result depends only on its
// bytes and the key material), so it shards freely, while route
// reconstruction stays serial where ordering matters.
//
// Each worker owns a full private verifier chain — verifier, resolver,
// key-schedule cache — built by the caller's factory inside the worker's
// goroutine, honoring the package's ownership contract. Only the
// KeyStore (synchronized) and obs counters (atomic) are shared.
//
// Determinism contract: for a fixed batch sequence the folded order, the
// returned Results, every Tracker verdict and the verdict-visible obs
// counters (packets, marks verified, stops) are byte-identical at any
// worker count — the same contract parallel.RunN gives experiment runs.
// Cache-locality counters (resolver table builds, schedule-cache misses)
// legitimately vary with the sharding and are excluded.
//
// pnmlint:single-goroutine — Observe reuses a scratch result slice and
// folds into the tracker; the pipeline, like the tracker it wraps,
// belongs to the sink goroutine.
type Pipeline struct {
	pool    *parallel.Pool[*pipeWorker]
	tracker *Tracker
	scratch []Result

	// Per-round state the bound work function reads: the batch under
	// verification, the result slots, and the round number each worker
	// compares against to recycle its verifier's chain arena exactly once
	// per round. workFn is p.work bound once, so Observe passes the same
	// callback value to the pool every round instead of allocating a
	// closure per batch. Pool.Do's hand-off orders these writes before
	// the workers read them.
	curBatch []packet.Message
	// curEpochs carries each slot's arrival epoch for the round; nil when
	// the whole batch verifies against the base epoch.
	curEpochs []topology.EpochVersion
	results   []Result
	round     uint64
	workFn    func(*pipeWorker, int)

	// obs bindings; nil (no-op) unless Instrument was called.
	batches   *obs.Counter
	occupancy *obs.Histogram
}

// pipeWorker is one worker's factory-owned state: its private verifier
// chain, the VerifyScratch view of it (nil when the verifier has no chain
// arena), and the last round it reset that arena in.
type pipeWorker struct {
	v     Verifier
	rs    VerifyScratch
	ev    EpochVerifier // nil when the verifier is epoch-independent
	round uint64
}

// NewPipeline starts workers verification workers (<= 0 selects
// GOMAXPROCS); factory runs once inside each worker goroutine to build
// that worker's private verifier chain. Results fold into tracker on the
// calling goroutine. Close the pipeline to release the workers.
func NewPipeline(workers int, factory func() Verifier, tracker *Tracker) *Pipeline {
	p := &Pipeline{tracker: tracker}
	p.workFn = p.work
	p.pool = parallel.NewPool(workers, func() *pipeWorker {
		w := &pipeWorker{v: factory()}
		w.rs, _ = w.v.(VerifyScratch)
		w.ev, _ = w.v.(EpochVerifier)
		return w
	})
	return p
}

// work verifies slot i of the current round's batch on worker w's private
// verifier. The first slot a worker sees in a round recycles its chain
// arena: the previous round's Results are dead by contract (read before
// the next Observe), and every Result of the current round stays valid
// together.
func (p *Pipeline) work(w *pipeWorker, i int) {
	if w.round != p.round {
		w.round = p.round
		if w.rs != nil {
			w.rs.ResetVerifyScratch()
		}
	}
	if p.curEpochs != nil && w.ev != nil {
		p.results[i] = w.ev.VerifyAt(p.curBatch[i], p.curEpochs[i])
		return
	}
	p.results[i] = w.v.Verify(p.curBatch[i])
}

// Tracker returns the tracker the pipeline folds into.
func (p *Pipeline) Tracker() *Tracker { return p.tracker }

// Instrument binds the pipeline's batch counters into reg. Worker-side
// verifier metrics are bound by the factory (each worker instruments its
// own chain; the underlying counters are shared atomics).
func (p *Pipeline) Instrument(reg *obs.Registry) {
	p.batches = reg.Counter("sink.pipeline.batches")
	p.occupancy = reg.Histogram("sink.pipeline.worker_occupancy")
}

// Observe verifies one batch across the workers and folds every result
// into the tracker in batch order. epochs[i] names slot i's arrival
// topology epoch; nil epochs (or an epoch-independent verifier) verifies
// the whole batch against the base epoch. The returned slice is the
// pipeline's scratch space: read it before the next Observe call.
func (p *Pipeline) Observe(batch []packet.Message, epochs []topology.EpochVersion) []Result {
	if len(batch) == 0 {
		return nil
	}
	if epochs != nil && len(epochs) != len(batch) {
		panic("sink: pipeline batch and epoch slices disagree")
	}
	if cap(p.scratch) < len(batch) {
		p.scratch = make([]Result, len(batch))
	}
	p.curBatch = batch
	p.curEpochs = epochs
	p.results = p.scratch[:len(batch)]
	p.round++
	used := p.pool.Do(len(batch), p.workFn)
	p.batches.Inc()
	p.occupancy.Observe(uint64(used))
	for i := range p.results {
		p.tracker.Fold(p.results[i])
	}
	p.curBatch = nil
	p.curEpochs = nil
	return p.results
}

// Close stops the worker pool. The tracker remains usable.
func (p *Pipeline) Close() { p.pool.Close() }
