package parallel

import (
	"runtime"
	"sync"
)

// Pool is a persistent worker pool whose workers each own private state
// built by a factory invoked inside the worker's goroutine — the
// one-private-chain-per-goroutine ownership story (see the package doc)
// packaged as a reusable primitive. The sink's verification pipeline uses
// it to keep one verifier + resolver + key-schedule cache warm per worker
// across batches instead of rebuilding them per call.
//
// Do shards [0, n) into one contiguous range per worker and blocks until
// every slot has been processed. Each invocation of fn receives the
// owning worker's state; two workers never observe each other's state,
// and each slot index is handed to exactly one worker — so a caller that
// writes results[i] from fn gets disjoint, race-free writes and can
// consume the results deterministically in index order afterwards.
type Pool[S any] struct {
	workers int
	in      []chan span[S]
	wg      sync.WaitGroup

	closeOnce sync.Once
}

// span is one contiguous slice of a Do call's index range, assigned to
// one worker.
type span[S any] struct {
	lo, hi int
	fn     func(s S, i int)
	st     *doState
}

// doState is the per-Do rendezvous: completion plus deterministic panic
// propagation (lowest panicking index wins, as in ForEach).
type doState struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	panicked bool
	panicIdx int
	panicVal any
}

// NewPool starts workers goroutines (<= 0 selects GOMAXPROCS), each of
// which builds its private state by calling factory exactly once, inside
// the worker's own goroutine. Close releases them.
func NewPool[S any](workers int, factory func() S) *Pool[S] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	p := &Pool[S]{workers: workers, in: make([]chan span[S], workers)}
	for w := range p.in {
		p.in[w] = make(chan span[S], 1)
		p.wg.Add(1)
		go p.run(p.in[w], factory)
	}
	return p
}

// run is one worker's loop: build private state, then process spans until
// the pool closes.
func (p *Pool[S]) run(in <-chan span[S], factory func() S) {
	defer p.wg.Done()
	s := factory()
	for sp := range in {
		for i := sp.lo; i < sp.hi; i++ {
			call(s, sp, i)
		}
		sp.st.wg.Done()
	}
}

// call runs fn for one slot, capturing a panic so the worker survives and
// the remaining slots still execute; Do re-raises the panic of the lowest
// panicking slot on the caller's goroutine.
func call[S any](s S, sp span[S], i int) {
	defer func() {
		if r := recover(); r != nil {
			sp.st.mu.Lock()
			if !sp.st.panicked || i < sp.st.panicIdx {
				sp.st.panicked, sp.st.panicIdx, sp.st.panicVal = true, i, r
			}
			sp.st.mu.Unlock()
		}
	}()
	sp.fn(s, i)
}

// Do invokes fn(state, i) for every i in [0, n), sharding the range into
// one contiguous span per worker, and returns how many workers took part
// (the batch's occupancy). It must be called from one goroutine at a time
// and not after Close. A panic in fn is re-raised here, from the lowest
// panicking index.
func (p *Pool[S]) Do(n int, fn func(s S, i int)) int {
	if n <= 0 {
		return 0
	}
	w := p.workers
	if w > n {
		w = n
	}
	chunk := (n + w - 1) / w
	st := &doState{}
	used := 0
	for i := 0; i < w; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		st.wg.Add(1)
		p.in[i] <- span[S]{lo: lo, hi: hi, fn: fn, st: st}
		used++
	}
	st.wg.Wait()
	if st.panicked {
		panic(st.panicVal)
	}
	return used
}

// Close stops the workers and waits for them to drain. Safe to call more
// than once; Do must not be called afterwards.
func (p *Pool[S]) Close() {
	p.closeOnce.Do(func() {
		for _, ch := range p.in {
			close(ch)
		}
	})
	p.wg.Wait()
}
