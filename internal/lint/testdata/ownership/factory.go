package fixture

import "sync"

// newTally is the factory the worker patterns below call from inside
// their goroutines, mirroring workers that build their own private
// verifier chains.
func newTally() *Tally { return &Tally{} }

// worker bundles goroutine-local state behind a field, like a
// per-worker verifier chain.
type worker struct {
	tally *Tally
}

// FactoryClosure calls a factory inside the goroutine and uses the
// returned instance directly — the worker-constructs-own-instance
// pattern. No findings.
func FactoryClosure() {
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			newTally().Add()
		}()
	}
	wg.Wait()
}

// FieldOfLocal reaches the marked type through a field of a local
// declared inside the goroutine: still goroutine-owned. No findings.
func FieldOfLocal() {
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := worker{tally: newTally()}
			wk.tally.Add()
			_ = wk.tally.Total()
		}()
	}
	wg.Wait()
}

// SharedField leaks one instance into the goroutine through a field of
// an outer local: finding.
func SharedField() {
	shared := worker{tally: newTally()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		shared.tally.Add() // want "method Tally.Add used in a goroutine"
	}()
	wg.Wait()
}
