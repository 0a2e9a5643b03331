// Package parallel is the deterministic run engine behind the experiment
// harness: it fans embarrassingly parallel, independently seeded runs
// across runtime.GOMAXPROCS(0) workers and hands the results back indexed
// by run.
//
// Determinism is the contract. Workers race only over *which* run they
// claim next; every run derives its randomness purely from its run index
// (the experiment configs seed each run as cfg.Seed + f(run)), and results
// land in a slice slot owned by that index. Callers then aggregate in run
// order, so sums, means and rendered tables are bit-identical whatever the
// worker count — GOMAXPROCS=1 and GOMAXPROCS=8 produce the same bytes.
//
// The worker function must therefore be self-contained: it builds its own
// sim.Runner, tracker and rand.Rand, and shares nothing mutable with other
// runs. Sink-side objects in particular (sink.Tracker, the resolvers) are
// single-goroutine state — see the internal/sink package doc.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunN runs fn for every run index in [0, runs) on min(GOMAXPROCS, runs)
// workers and returns the results ordered by run index. All runs execute
// regardless of individual failures; if any failed, the error of the
// lowest failing run index is returned (so the reported error does not
// depend on worker scheduling) and the results are discarded. A panic in
// any run is re-raised on the caller's goroutine once every run has
// finished — from the lowest panicking index, so even failures are
// deterministic.
func RunN[T any](runs int, fn func(run int) (T, error)) ([]T, error) {
	runs = max(runs, 0)
	out := make([]T, runs)
	errs := make([]error, runs)
	panics := make([]any, runs)
	var panicked atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), runs); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= runs {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
							panicked.Store(true)
						}
					}()
					out[i], errs[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		for _, r := range panics {
			if r != nil {
				panic(r)
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
