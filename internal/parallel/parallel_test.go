package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withGOMAXPROCS runs f with the worker width set to procs and restores
// the previous setting afterwards.
func withGOMAXPROCS(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// square is an infallible run.
func square(run int) (int, error) { return run * run, nil }

func TestRunNOrdersResultsByRunIndex(t *testing.T) {
	for _, procs := range []int{1, 2, 8, 100} {
		withGOMAXPROCS(procs, func() {
			got, err := RunN(50, square)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("GOMAXPROCS=%d: result[%d] = %d, want %d", procs, i, v, i*i)
				}
			}
		})
	}
}

func TestRunNDeterministicAcrossWorkerCounts(t *testing.T) {
	// Each run seeds its own RNG from the run index — the engine's
	// contract — so any worker count must reproduce the serial results.
	fn := func(run int) ([]float64, error) {
		rng := rand.New(rand.NewSource(int64(run) * 7919))
		xs := make([]float64, 16)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		return xs, nil
	}
	var serial [][]float64
	withGOMAXPROCS(1, func() { serial, _ = RunN(40, fn) })
	for _, procs := range []int{2, 4, 8} {
		withGOMAXPROCS(procs, func() {
			if got, _ := RunN(40, fn); !reflect.DeepEqual(got, serial) {
				t.Fatalf("GOMAXPROCS=%d diverged from serial results", procs)
			}
		})
	}
}

func TestRunNEdgeCases(t *testing.T) {
	one := func(int) (int, error) { return 1, nil }
	if got, err := RunN(0, one); len(got) != 0 || err != nil {
		t.Fatalf("RunN(0) = %d results, %v", len(got), err)
	}
	if got, err := RunN(-3, one); len(got) != 0 || err != nil {
		t.Fatalf("RunN(-3) = %d results, %v", len(got), err)
	}
}

func TestRunNEachIndexExactlyOnce(t *testing.T) {
	counts := make([]atomic.Int64, 200)
	withGOMAXPROCS(8, func() {
		RunN(200, func(run int) (struct{}, error) {
			counts[run].Add(1)
			return struct{}{}, nil
		})
	})
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("run %d executed %d times", i, n)
		}
	}
}

func TestRunNErrReportsLowestFailingRun(t *testing.T) {
	errWant := errors.New("run 3 failed")
	withGOMAXPROCS(8, func() {
		got, err := RunN(20, func(run int) (int, error) {
			switch run {
			case 3:
				return 0, errWant
			case 11:
				return 0, errors.New("run 11 failed")
			}
			return run, nil
		})
		if err != errWant {
			t.Fatalf("err = %v, want the lowest failing run's error", err)
		}
		if got != nil {
			t.Fatalf("results = %v, want them discarded on error", got)
		}
	})
}

func TestRunNErrSuccess(t *testing.T) {
	withGOMAXPROCS(4, func() {
		got, err := RunN(10, func(run int) (string, error) {
			return fmt.Sprintf("r%d", run), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got[7] != "r7" {
			t.Fatalf("result[7] = %q", got[7])
		}
	})
}

func TestRunNPanicPropagatesLowestIndex(t *testing.T) {
	withGOMAXPROCS(8, func() {
		defer func() {
			r := recover()
			if r != "boom 2" {
				t.Fatalf("recovered %v, want the lowest panicking index's value", r)
			}
		}()
		RunN(16, func(i int) (int, error) {
			if i == 2 || i == 9 {
				panic(fmt.Sprintf("boom %d", i))
			}
			return i, nil
		})
		t.Fatal("RunN did not propagate the panic")
	})
}

// TestWorkersNormalization checks the worker width: never more runs in
// flight than GOMAXPROCS, so GOMAXPROCS=1 is a strictly serial sweep.
func TestWorkersNormalization(t *testing.T) {
	for _, procs := range []int{1, 2, 3} {
		var inFlight, peak atomic.Int64
		withGOMAXPROCS(procs, func() {
			RunN(24, func(int) (struct{}, error) {
				n := inFlight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
				return struct{}{}, nil
			})
		})
		if got := peak.Load(); got > int64(procs) {
			t.Fatalf("GOMAXPROCS=%d: %d runs in flight at once", procs, got)
		}
	}
}
