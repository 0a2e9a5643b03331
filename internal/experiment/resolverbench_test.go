package experiment

import (
	"encoding/json"
	"testing"

	"pnm/internal/sink"
)

// testResolverBenchConfig shrinks the workload so the test runs in
// milliseconds while keeping the interleaving structure intact.
func testResolverBenchConfig() ResolverBenchConfig {
	return ResolverBenchConfig{
		Nodes: 128, Sources: 4, Reports: 3, Repeats: 4, Seed: 9,
		CacheCapacity: sink.DefaultTableCacheSize,
	}
}

// TestResolverBenchStructure checks the benchmark's shape: three rows over
// the same stream, with cache counters proving the LRU removes the
// per-packet rebuilds the single-entry baseline pays.
func TestResolverBenchStructure(t *testing.T) {
	cfg := testResolverBenchConfig()
	res, err := ResolverBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	wantPackets := cfg.Sources * cfg.Reports * cfg.Repeats
	names := map[string]ResolverBenchRow{}
	for _, r := range res.Rows {
		names[r.Resolver] = r
		if r.Packets != wantPackets {
			t.Fatalf("%s: packets = %d, want %d", r.Resolver, r.Packets, wantPackets)
		}
	}
	single, okS := names["exhaustive-single"]
	lru, okL := names["exhaustive-lru"]
	topoRow, okT := names["topology"]
	if !okS || !okL || !okT {
		t.Fatalf("missing variant rows: %v", res.Rows)
	}

	// The LRU holds every live report, so it builds each marked report's
	// table once; the interleaved stream defeats the single-entry cache,
	// which rebuilds on every retransmission. (Packets PNM left unmarked
	// never consult the resolver, so the unit is marked reports, not raw
	// packets.)
	if lru.TableBuilds == 0 || lru.TableBuilds > uint64(cfg.Sources*cfg.Reports) {
		t.Fatalf("lru table builds = %d, want one per distinct marked report (<= %d)",
			lru.TableBuilds, cfg.Sources*cfg.Reports)
	}
	if want := lru.TableBuilds * uint64(cfg.Repeats); single.TableBuilds != want {
		t.Fatalf("single-entry table builds = %d, want %d (every retransmission rebuilds)",
			single.TableBuilds, want)
	}
	if lru.CacheHitRate <= single.CacheHitRate {
		t.Fatalf("lru hit rate %.3f not above single-entry %.3f", lru.CacheHitRate, single.CacheHitRate)
	}

	// All three resolvers verify the same stream identically.
	if single.MarksVerified == 0 {
		t.Fatal("no marks verified — degenerate workload")
	}
	for _, r := range []ResolverBenchRow{lru, topoRow} {
		if r.MarksVerified != single.MarksVerified || r.Stops != single.Stops {
			t.Fatalf("%s verified %d/%d, baseline %d/%d — resolvers diverged",
				r.Resolver, r.MarksVerified, r.Stops, single.MarksVerified, single.Stops)
		}
	}
	if topoRow.Probes == 0 || topoRow.MACCandidatesPerMark <= 0 {
		t.Fatalf("topology row missing probe counters: %+v", topoRow)
	}
}

// TestResolverBenchDeterministicCounters pins that everything except the
// wall-clock timings is reproducible run to run.
func TestResolverBenchDeterministicCounters(t *testing.T) {
	cfg := testResolverBenchConfig()
	a, err := ResolverBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResolverBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		ra.NsPerPacket, rb.NsPerPacket = 0, 0
		if ra != rb {
			t.Fatalf("row %d not deterministic:\n  %+v\n  %+v", i, ra, rb)
		}
	}
}

// TestRenderResolverBenchIsValidJSON round-trips the rendered document.
func TestRenderResolverBenchIsValidJSON(t *testing.T) {
	res, err := ResolverBench(testResolverBenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := RenderResolverBench(res)
	if err != nil {
		t.Fatal(err)
	}
	var back ResolverBenchResult
	if err := json.Unmarshal([]byte(doc), &back); err != nil {
		t.Fatalf("rendered document is not valid JSON: %v", err)
	}
	if back.Config != res.Config || len(back.Rows) != len(res.Rows) {
		t.Fatal("document did not round-trip")
	}
}
