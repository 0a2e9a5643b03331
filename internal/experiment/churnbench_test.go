package experiment

import (
	"strings"
	"testing"
)

// TestChurnBenchSmall runs a scaled-down churn sweep end to end. The
// load-bearing invariants — mole caught at every churn level, stale
// divergence strictly positive on churned rows, verdict-hash equality
// with the full-rebuild reference — are enforced inside ChurnBench, so a
// nil error IS those assertions. The test adds the cross-row claims: the
// incremental tracker's work is identical at every churn level while the
// rebuild reference's grows with churn.
func TestChurnBenchSmall(t *testing.T) {
	cfg := DefaultChurnBench()
	cfg.Nodes = 50
	cfg.Side = 5
	cfg.Batch = 20
	cfg.MaxPackets = 320
	cfg.ChurnSweep = []int{0, 2, 6}
	res, err := ChurnBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(cfg.ChurnSweep) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(cfg.ChurnSweep))
	}
	base := res.Rows[0]
	if base.Epochs != 0 || base.StaleDivergence != 0 || base.RebuildChainsReplayed != 0 {
		t.Fatalf("static baseline row is not churn-free: %+v", base)
	}
	prevReplayed := 0
	for _, r := range res.Rows {
		if r.ChainsFolded != base.ChainsFolded {
			t.Fatalf("epochs=%d folded %d chains, static baseline folded %d — incremental work must not depend on churn",
				r.Epochs, r.ChainsFolded, base.ChainsFolded)
		}
		if r.Epochs > 0 {
			if r.RebuildChainsReplayed <= prevReplayed {
				t.Fatalf("epochs=%d replayed %d chains, not more than the previous level's %d",
					r.Epochs, r.RebuildChainsReplayed, prevReplayed)
			}
			if r.StaleStops == 0 {
				t.Fatalf("epochs=%d: stale resolver never wrongly stopped a chain", r.Epochs)
			}
		}
		prevReplayed = r.RebuildChainsReplayed
	}
	doc, err := RenderBench(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, "\"rebuild_chains_replayed\"") {
		t.Fatalf("rendered document missing the rebuild column:\n%s", doc)
	}
}

// TestChurnBenchReproducible: the committed document is a pure function
// of its config (modulo wall-clock timing columns, which are zeroed for
// the comparison).
func TestChurnBenchReproducible(t *testing.T) {
	cfg := DefaultChurnBench()
	cfg.Nodes = 40
	cfg.Side = 4
	cfg.Batch = 20
	cfg.MaxPackets = 240
	cfg.ChurnSweep = []int{0, 3}
	a, err := ChurnBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChurnBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		a.Rows[i].IncrementalNs, a.Rows[i].RebuildNs = 0, 0
		b.Rows[i].IncrementalNs, b.Rows[i].RebuildNs = 0, 0
	}
	da, err := RenderBench(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := RenderBench(b)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatal("two runs of the same config rendered different documents")
	}
}
