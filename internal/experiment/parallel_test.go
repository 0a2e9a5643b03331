package experiment

import (
	"fmt"
	"runtime"
	"testing"

	"pnm/internal/stats"
)

// atGOMAXPROCS returns render's output with the run engine's worker width
// set to procs, restoring the previous setting afterwards.
func atGOMAXPROCS(procs int, render func() string) string {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return render()
}

// renderFig5 flattens Fig5 output to bytes the way cmd/pnmsim emits it, so
// equality below is exactly the "same CSV in results/" guarantee.
func renderFig5(t *testing.T, cfg Fig5Config) string {
	t.Helper()
	series, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return stats.CSV("packets", series...)
}

// TestFig5ParallelSerialEquivalence is the engine's core regression: with
// the same seed, the Fig5 sweep must be byte-identical at GOMAXPROCS=1 and
// GOMAXPROCS=8. Seeds derive from the run index alone and aggregation folds
// in run order, so worker scheduling must not be observable in the output.
func TestFig5ParallelSerialEquivalence(t *testing.T) {
	cfg := DefaultFig5()
	cfg.PathLens = []int{10, 20}
	cfg.MaxPackets = 30
	cfg.Runs = 64

	render := func() string { return renderFig5(t, cfg) }
	serial := atGOMAXPROCS(1, render)
	parallel8 := atGOMAXPROCS(8, render)

	if serial != parallel8 {
		t.Fatalf("Fig5 diverged between GOMAXPROCS=1 and GOMAXPROCS=8:\n--- serial ---\n%s--- GOMAXPROCS=8 ---\n%s", serial, parallel8)
	}
}

// TestFig67ParallelSerialEquivalence asserts the same byte-identity for
// the Fig 6/7 identification sweep, covering both the failure counters and
// the float mean of packets-to-identify.
func TestFig67ParallelSerialEquivalence(t *testing.T) {
	cfg := DefaultFig67()
	cfg.PathLens = []int{5, 10, 15}
	cfg.Traffics = []int{100, 200}
	cfg.Runs = 32

	render := func() string {
		res, err := Fig67(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats.CSV("path length", res.Failures...) + stats.CSV("path length", res.AvgPackets)
	}

	serial := atGOMAXPROCS(1, render)
	parallel8 := atGOMAXPROCS(8, render)
	if serial != parallel8 {
		t.Fatalf("Fig67 diverged between GOMAXPROCS=1 and GOMAXPROCS=8:\n--- serial ---\n%s--- GOMAXPROCS=8 ---\n%s", serial, parallel8)
	}
}

// TestSecurityMatrixParallelSerialEquivalence pins the cell order of the
// fanned-out matrix to the serial nesting (schemes outer, attacks inner).
func TestSecurityMatrixParallelSerialEquivalence(t *testing.T) {
	cfg := DefaultMatrix()
	cfg.Packets = 150

	render := func() string {
		cells, err := SecurityMatrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return RenderMatrix(cells)
	}

	if serial, parallel8 := atGOMAXPROCS(1, render), atGOMAXPROCS(8, render); serial != parallel8 {
		t.Fatalf("SecurityMatrix diverged between GOMAXPROCS=1 and GOMAXPROCS=8:\n--- serial ---\n%s--- GOMAXPROCS=8 ---\n%s", serial, parallel8)
	}
}

// TestChurnBenchParallelSerialEquivalence pins ChurnBench's run fan-out:
// the document, with env and the *_ns wall-clock columns zeroed, is the
// same at GOMAXPROCS=1 and GOMAXPROCS=8.
func TestChurnBenchParallelSerialEquivalence(t *testing.T) {
	cfg := DefaultChurnBench()
	cfg.Nodes = 40
	cfg.Side = 4
	cfg.Runs = 6
	cfg.Batch = 20
	cfg.MaxPackets = 240
	cfg.ChurnSweep = []int{0, 3}

	render := func() string { return renderChurnBench(t, cfg) }
	if serial, parallel8 := atGOMAXPROCS(1, render), atGOMAXPROCS(8, render); serial != parallel8 {
		t.Fatalf("ChurnBench diverged between GOMAXPROCS=1 and GOMAXPROCS=8:\n--- serial ---\n%s--- GOMAXPROCS=8 ---\n%s", serial, parallel8)
	}
}

// BenchmarkFig5Workers measures the run engine's scaling on the Fig5 sweep
// (the acceptance check: >= 2x wall clock at 4+ workers over one worker).
// Each sub-benchmark sets GOMAXPROCS to its worker count.
// Run with: go test -bench=Fig5Workers -benchtime=1x ./internal/experiment
func BenchmarkFig5Workers(b *testing.B) {
	base := DefaultFig5()
	base.PathLens = []int{20}
	base.Runs = 256
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			for i := 0; i < b.N; i++ {
				if _, err := Fig5(base); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
