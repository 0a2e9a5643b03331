package experiment

import (
	"runtime"
	"strings"
	"testing"
)

// TestScaleBenchSmall runs a scaled-down scaling matrix end to end: the
// generator enforces verdict-hash and counter equality between the
// serial baseline and every pipeline configuration, so a clean
// return is the determinism check; the row assertions pin the
// provenance columns (GOMAXPROCS, NumCPU) the committed document exists
// to record.
func TestScaleBenchSmall(t *testing.T) {
	cfg := ScaleBenchConfig{
		Nodes:    96,
		Hosts:    8,
		Sources:  600,
		Workers:  []int{1, 2},
		BatchLen: 64,
		Seed:     17,
	}
	res, err := ScaleBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(cfg.Workers); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	if res.Env.GOMAXPROCS != runtime.GOMAXPROCS(0) || res.Env.NumCPU != runtime.NumCPU() || !res.Env.Benchmem {
		t.Fatalf("env provenance off: %+v", res.Env)
	}
	serial := res.Rows[0]
	if serial.Mode != "serial" {
		t.Fatalf("first row mode = %q, want serial", serial.Mode)
	}
	for _, row := range res.Rows {
		if row.Packets != cfg.Sources {
			t.Fatalf("row %s w%d folded %d of %d packets", row.Mode, row.Workers, row.Packets, cfg.Sources)
		}
		if row.GOMAXPROCS != runtime.GOMAXPROCS(0) || row.NumCPU != runtime.NumCPU() {
			t.Fatalf("row %s w%d lacks honest provenance: %+v", row.Mode, row.Workers, row)
		}
		if row.NsPerPacket <= 0 {
			t.Fatalf("row %s w%d has no timing", row.Mode, row.Workers)
		}
		if row.VerdictHash != serial.VerdictHash {
			t.Fatalf("row %s w%d verdict hash diverged (generator should have errored)", row.Mode, row.Workers)
		}
		if row.AllocsPerPacket < 0 || row.BytesPerPacket < 0 {
			t.Fatalf("row %s w%d has negative alloc columns: %+v", row.Mode, row.Workers, row)
		}
	}
	// The serial verify path is the zero-copy claim's anchor: after the
	// warmup batch it must run allocation-free per packet (sub-1 means
	// only stray background allocation, not per-packet work).
	if serial.AllocsPerPacket >= 1 {
		t.Fatalf("serial path allocates %.2f allocs/packet at steady state, want < 1", serial.AllocsPerPacket)
	}

	out, err := RenderScaleBench(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"gomaxprocs"`, `"num_cpu"`, `"allocs_per_packet"`, `"mode": "pipeline"`, `"benchmem": true`} {
		if !strings.Contains(out, key) {
			t.Fatalf("rendered document missing %s:\n%s", key, out)
		}
	}
}
