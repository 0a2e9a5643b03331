package experiment

import (
	"encoding/json"
	"runtime"
)

// BenchEnv records the runtime provenance a bench document was measured
// under. Every committed BENCH_*.json embeds one, so a future regression
// (or an implausible speedup) is attributable to hardware versus code:
// a 1-core container's pipeline rows legitimately show no speedup, and
// without GOMAXPROCS in the document that reads as a code regression.
type BenchEnv struct {
	// GOMAXPROCS is the scheduler's parallelism bound at generation time
	// — the honest ceiling on any measured multicore speedup.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is the machine's logical CPU count.
	NumCPU int `json:"num_cpu"`
	// GoVersion, GOOS and GOARCH identify the toolchain and platform.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Benchmem reports whether the document's rows carry allocation
	// columns (B/op, allocs/op) measured alongside the timings.
	Benchmem bool `json:"benchmem"`
}

// CaptureBenchEnv snapshots the current runtime environment. benchmem
// says whether the caller's rows include allocation columns.
func CaptureBenchEnv(benchmem bool) BenchEnv {
	return BenchEnv{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmem:   benchmem,
	}
}

// RenderBench serializes a bench result as its committed JSON document.
func RenderBench(doc any) (string, error) {
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
