package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestChurnBenchSmall runs a scaled-down churn sweep end to end. The
// load-bearing invariants — mole caught at every churn level, stale
// divergence strictly positive on churned rows, the epoch pin handed
// back — are enforced inside ChurnBench, so a nil error IS those
// assertions. The test adds the cross-row claims: the incremental
// tracker's work is identical at every churn level while the pre-fix
// cost model's replay count grows with churn.
func TestChurnBenchSmall(t *testing.T) {
	cfg := DefaultChurnBench()
	cfg.Nodes = 50
	cfg.Side = 5
	cfg.Runs = 3
	cfg.Batch = 20
	cfg.MaxPackets = 320
	cfg.ChurnSweep = []int{0, 2, 6}
	res, err := ChurnBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The static row runs once; each churned level runs in both modes.
	if want := 2*len(cfg.ChurnSweep) - 1; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	base := res.Rows[0]
	if base.Epochs != 0 || base.StaleDivergence != 0 || base.RebuildChainsReplayed != 0 {
		t.Fatalf("static baseline row is not churn-free: %+v", base)
	}
	prevReplayed := map[string]int{}
	for _, r := range res.Rows {
		if r.ChainsFolded != base.ChainsFolded {
			t.Fatalf("%s epochs=%d folded %d chains, static baseline folded %d — incremental work must not depend on churn",
				r.Mode, r.Epochs, r.ChainsFolded, base.ChainsFolded)
		}
		if r.Epochs > 0 {
			if r.RebuildChainsReplayed <= prevReplayed[r.Mode] {
				t.Fatalf("%s epochs=%d replayed %d chains, not more than the previous level's %d",
					r.Mode, r.Epochs, r.RebuildChainsReplayed, prevReplayed[r.Mode])
			}
			if r.StaleStops == 0 {
				t.Fatalf("%s epochs=%d: stale resolver never wrongly stopped a chain", r.Mode, r.Epochs)
			}
		}
		prevReplayed[r.Mode] = r.RebuildChainsReplayed
		if r.Runs != cfg.Runs || r.CaughtRuns < 1 || r.CaughtRuns > r.Runs ||
			r.IdentifiedRuns > r.Runs || r.PreciseRuns > r.Runs || r.CandidatesMean < 1 {
			t.Fatalf("%s epochs=%d: run aggregates out of range: %+v", r.Mode, r.Epochs, r)
		}
	}
	doc, err := RenderBench(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"\"rebuild_chains_replayed\"", "\"mode\": \"rewire-keep-first-hop\"", "\"caught_runs\""} {
		if !strings.Contains(doc, col) {
			t.Fatalf("rendered document missing %s:\n%s", col, doc)
		}
	}
}

// TestChurnBenchReproducible: the committed document is a pure function
// of its config (modulo env and the wall-clock timing columns, which
// are zeroed for the comparison).
func TestChurnBenchReproducible(t *testing.T) {
	cfg := DefaultChurnBench()
	cfg.Nodes = 40
	cfg.Side = 4
	cfg.Runs = 2
	cfg.Batch = 20
	cfg.MaxPackets = 240
	cfg.ChurnSweep = []int{0, 3}
	render := func() string { return renderChurnBench(t, cfg) }
	if render() != render() {
		t.Fatal("two runs of the same config rendered different documents")
	}
}

// renderChurnBench renders cfg's document with env and every *_ns
// column zeroed.
func renderChurnBench(t *testing.T, cfg ChurnBenchConfig) string {
	t.Helper()
	res, err := ChurnBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := RenderBench(res)
	if err != nil {
		t.Fatal(err)
	}
	return withoutWallClock(t, doc)
}

// withoutWallClock re-renders a bench document with what varies between
// machines and runs zeroed: env and every *_ns column.
func withoutWallClock(t *testing.T, doc string) string {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(doc), &v); err != nil {
		t.Fatal(err)
	}
	var zero func(v any)
	zero = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				if k == "env" || strings.HasSuffix(k, "_ns") {
					v[k] = nil
				} else {
					zero(x)
				}
			}
		case []any:
			for _, x := range v {
				zero(x)
			}
		}
	}
	zero(v)
	out, err := RenderBench(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCommittedBenchDocsReproduce reruns each committed deterministic
// bench document's own config and requires the same document, apart from
// env and the *_ns wall-clock columns. For BENCH_churn.json this is the
// reproduction check of every E18 and E23 figure. BENCH_sink.json is
// mostly timings, so only its deterministic part must reproduce: the
// config and each row's stream, resolver, packet count, verdict hash and
// counters — the check that a MAC or resolver change moved no verdict.
func TestCommittedBenchDocsReproduce(t *testing.T) {
	docs := []struct {
		file  string
		rerun func(raw []byte) (any, error)
	}{
		{"BENCH_churn.json", func(raw []byte) (any, error) {
			var doc ChurnBenchResult
			if err := decodeStrict(raw, &doc); err != nil {
				return nil, err
			}
			return ChurnBench(doc.Config)
		}},
		{"BENCH_fault.json", func(raw []byte) (any, error) {
			var doc FaultBenchResult
			if err := decodeStrict(raw, &doc); err != nil {
				return nil, err
			}
			return FaultBench(doc.Config)
		}},
	}
	t.Run("BENCH_sink.json", func(t *testing.T) {
		raw, err := os.ReadFile("../../BENCH_sink.json")
		if err != nil {
			t.Fatal(err)
		}
		var doc SinkBenchResult
		if err := decodeStrict(raw, &doc); err != nil {
			t.Fatal(err)
		}
		res, err := SinkBench(doc.Config)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sinkVerdicts(t, res), sinkVerdicts(t, &doc); got != want {
			t.Fatalf("BENCH_sink.json verdicts do not reproduce from its config;\ncommitted:\n%s\nregenerated:\n%s", want, got)
		}
	})
	for _, d := range docs {
		t.Run(d.file, func(t *testing.T) {
			raw, err := os.ReadFile("../../" + d.file)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.rerun(raw)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RenderBench(res)
			if err != nil {
				t.Fatal(err)
			}
			if want := withoutWallClock(t, string(raw)); withoutWallClock(t, got) != want {
				t.Fatalf("%s does not reproduce from its config; regenerated:\n%s", d.file, got)
			}
		})
	}
}

// sinkVerdicts renders a sink bench document's deterministic part as
// JSON: the config, and per row the stream, resolver, packet count,
// verdict hash and counters. Both sides go through one JSON round trip,
// so a live run's counters compare equal to decoded ones.
func sinkVerdicts(t *testing.T, doc *SinkBenchResult) string {
	t.Helper()
	type row struct {
		Stream      string `json:"stream"`
		Resolver    string `json:"resolver"`
		Packets     int    `json:"packets"`
		VerdictHash string `json:"verdict_hash"`
		Counters    any    `json:"counters"`
	}
	out := struct {
		Config SinkBenchConfig `json:"config"`
		Rows   []row           `json:"rows"`
	}{Config: doc.Config}
	for _, r := range doc.Rows {
		counters, err := json.Marshal(r.Counters)
		if err != nil {
			t.Fatal(err)
		}
		var c any
		if err := json.Unmarshal(counters, &c); err != nil {
			t.Fatal(err)
		}
		out.Rows = append(out.Rows, row{r.Stream, r.Resolver, r.Packets, r.VerdictHash, c})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// decodeStrict decodes a committed document, rejecting fields the
// generator no longer writes.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestChurnBenchCarriesE18 holds E18's three §7 claims over the
// committed 20 fields: traceback survives a route change that keeps the
// mole's first hop, and a full rewire stays precise but splits the
// candidate set.
func TestChurnBenchCarriesE18(t *testing.T) {
	cfg := DefaultChurnBench()
	cfg.ChurnSweep = []int{0, 1}
	res, err := ChurnBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := func(mode string, epochs int) ChurnBenchRow {
		for _, r := range res.Rows {
			if r.Mode == mode && r.Epochs == epochs {
				return r
			}
		}
		t.Fatalf("no %s epochs=%d row", mode, epochs)
		return ChurnBenchRow{}
	}
	most := func(n, runs int) bool { return 4*n >= 3*runs }

	for _, r := range []ChurnBenchRow{row(rewireAll, 0), row(rewireKeepFirstHop, 1)} {
		if r.Runs != cfg.Runs || !most(r.IdentifiedRuns, r.Runs) || !most(r.PreciseRuns, r.Runs) {
			t.Errorf("%s epochs=%d: identified %d and precise %d of %d runs, want both on >= 75%%",
				r.Mode, r.Epochs, r.IdentifiedRuns, r.PreciseRuns, r.Runs)
		}
	}
	all := row(rewireAll, 1)
	if !most(all.PreciseRuns, all.Runs) {
		t.Errorf("rewire-all epochs=1: precise on %d of %d runs, want >= 75%%", all.PreciseRuns, all.Runs)
	}
	if most(all.IdentifiedRuns, all.Runs) {
		t.Errorf("rewire-all epochs=1: identified on %d of %d runs, want < 75%% (a full rewire splits the candidate set)",
			all.IdentifiedRuns, all.Runs)
	}
}
