package experiment

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"pnm/internal/sink"
)

func testSinkBenchConfig() SinkBenchConfig {
	return SinkBenchConfig{
		Interleaved: InterleavedConfig{
			Nodes: 128, Sources: 4, Reports: 3, Repeats: 4, Seed: 9,
			CacheCapacity: sink.DefaultTableCacheSize, BatchLen: 8,
		},
		Keyed:    KeyedConfig{Nodes: 96, Hosts: 8, Sources: 600, BatchLen: 64, Seed: 17},
		MacIters: 256,
	}
}

// count reads a counter from a row; a counter the row's sink chain never
// registered reads as zero.
func count(row SinkBenchRow, name string) uint64 {
	v, _ := row.Counters[name].(uint64)
	return v
}

// TestSinkBenchSmall runs the committed benchmark at a reduced size and
// checks its structural guarantees: the LRU removes the single-entry
// cache's per-retransmission table rebuilds, the topology resolver
// probes instead of building tables, every row on a stream verifies
// identically (and the generator rejects one that does not), the keyed
// path is allocation-free, the schedule paths are allocation-free
// and faster than cold HMAC, and the document is reproducible and
// round-trips.
func TestSinkBenchSmall(t *testing.T) {
	cfg := testSinkBenchConfig()
	res, err := SinkBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 + 1; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	if res.Env.GOMAXPROCS != runtime.GOMAXPROCS(0) || res.Env.NumCPU != runtime.NumCPU() || !res.Env.Benchmem {
		t.Fatalf("env provenance off: %+v", res.Env)
	}
	ilPackets := cfg.Interleaved.Sources * cfg.Interleaved.Reports * cfg.Interleaved.Repeats
	rows := map[string]SinkBenchRow{}
	for _, row := range res.Rows {
		want := cfg.Keyed.Sources
		if row.Stream == "interleaved" {
			want = ilPackets
			rows[row.Resolver] = row
		}
		if row.Packets != want {
			t.Fatalf("%s %s: packets = %d, want %d", row.Stream, row.Resolver, row.Packets, want)
		}
		if row.NsPerPacket <= 0 || row.AllocsPerPacket < 0 || row.BytesPerPacket < 0 {
			t.Fatalf("%s %s: timing or alloc columns off: %+v", row.Stream, row.Resolver, row)
		}
	}
	single, lru, topo := rows["exhaustive-single"], rows["exhaustive-lru"], rows["topology"]
	keyed := res.Rows[3]
	if keyed.Stream != "keyed" {
		t.Fatalf("row 3 is on the %s stream, want keyed", keyed.Stream)
	}

	// The LRU holds every live report, so it builds each marked report's
	// table once; the interleaved stream defeats the single-entry cache,
	// which rebuilds on every retransmission. (Packets PNM left unmarked
	// never consult the resolver, so the unit is marked reports.)
	lruBuilds := count(lru, "sink.resolver.table_builds")
	if lruBuilds == 0 || lruBuilds > uint64(cfg.Interleaved.Sources*cfg.Interleaved.Reports) {
		t.Fatalf("lru table builds = %d, want one per distinct marked report (<= %d)",
			lruBuilds, cfg.Interleaved.Sources*cfg.Interleaved.Reports)
	}
	if got, want := count(single, "sink.resolver.table_builds"), lruBuilds*uint64(cfg.Interleaved.Repeats); got != want {
		t.Fatalf("single-entry table builds = %d, want %d (every retransmission rebuilds)", got, want)
	}
	hitRate := func(row SinkBenchRow) float64 {
		hits, misses := count(row, "sink.resolver.cache_hits"), count(row, "sink.resolver.cache_misses")
		return float64(hits) / float64(hits+misses)
	}
	if hitRate(lru) <= hitRate(single) {
		t.Fatalf("lru hit rate %.3f not above single-entry %.3f", hitRate(lru), hitRate(single))
	}
	if count(topo, "sink.resolver.probes") == 0 || count(topo, "sink.resolver.table_builds") != 0 {
		t.Fatalf("topology row: probes %d, table builds %d; want probes and no tables",
			count(topo, "sink.resolver.probes"), count(topo, "sink.resolver.table_builds"))
	}

	// Every row on a stream verifies and folds identically, and the
	// generator's check rejects a row that does not.
	first := map[string]SinkBenchRow{}
	for i, row := range res.Rows {
		ref, ok := first[row.Stream]
		if !ok {
			if count(row, "sink.verify.marks_verified") == 0 {
				t.Fatalf("%s stream verified no marks: degenerate workload", row.Stream)
			}
			first[row.Stream] = row
			continue
		}
		for _, name := range []string{"sink.verify.marks_verified", "sink.verify.stops"} {
			if count(row, name) != count(ref, name) {
				t.Fatalf("%s %s: %s = %d, first row %d", row.Stream, row.Resolver,
					name, count(row, name), count(ref, name))
			}
		}
		if row.VerdictHash != ref.VerdictHash {
			t.Fatalf("%s %s: verdict hash %s, first row %s", row.Stream, row.Resolver,
				row.VerdictHash, ref.VerdictHash)
		}
		bad := append([]SinkBenchRow(nil), res.Rows...)
		bad[i].VerdictHash = "diverged"
		if checkSinkRows(bad) == nil {
			t.Fatalf("check accepted a diverged hash on %s %s", row.Stream, row.Resolver)
		}
	}

	// The keyed verify path is the zero-copy claim's anchor: after the
	// warmup batch it runs allocation-free per packet (sub-1 means only
	// stray background allocation, not per-packet work).
	if keyed.AllocsPerPacket >= 1 {
		t.Fatalf("keyed path allocates %.2f allocs/packet at steady state, want < 1", keyed.AllocsPerPacket)
	}
	if res.Mac.SchedSumAllocs != 0 || res.Mac.SchedAnonAllocs != 0 {
		t.Errorf("schedule paths allocate: Sum %.1f, AnonID %.1f allocs/op",
			res.Mac.SchedSumAllocs, res.Mac.SchedAnonAllocs)
	}
	if res.Mac.SumSpeedup <= 1 || res.Mac.AnonSpeedup <= 1 {
		t.Errorf("schedule slower than cold path: Sum %.2fx, AnonID %.2fx",
			res.Mac.SumSpeedup, res.Mac.AnonSpeedup)
	}

	// Everything but the timing and allocation columns is reproducible.
	again, err := SinkBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	untimed := func(rows []SinkBenchRow) []SinkBenchRow {
		out := append([]SinkBenchRow(nil), rows...)
		for i := range out {
			out[i].NsPerPacket, out[i].BytesPerPacket, out[i].AllocsPerPacket = 0, 0, 0
		}
		return out
	}
	if a, b := untimed(res.Rows), untimed(again.Rows); !reflect.DeepEqual(a, b) {
		t.Fatalf("rows not reproducible:\n  %+v\n  %+v", a, b)
	}

	out, err := RenderBench(res)
	if err != nil {
		t.Fatal(err)
	}
	var back SinkBenchResult
	if err := json.Unmarshal([]byte(out), &back); err != nil {
		t.Fatalf("rendered document does not round-trip: %v", err)
	}
	if !reflect.DeepEqual(back.Config, res.Config) || len(back.Rows) != len(res.Rows) ||
		back.Rows[0].VerdictHash != res.Rows[0].VerdictHash ||
		back.Rows[0].Counters["sink.verify.marks_verified"] != float64(count(res.Rows[0], "sink.verify.marks_verified")) {
		t.Fatal("document did not round-trip")
	}
}

// TestCheckSinkRows pins the generator's row check: a row that differs
// from its stream's first row in verdict hash, marks verified or stops
// is rejected; rows on different streams are never compared.
func TestCheckSinkRows(t *testing.T) {
	row := func(stream, hash string, marks, stops uint64) SinkBenchRow {
		return SinkBenchRow{Stream: stream, VerdictHash: hash, Counters: map[string]any{
			"sink.verify.marks_verified": marks, "sink.verify.stops": stops, "sink.resolver.probes": marks * 3,
		}}
	}
	ref := row("interleaved", "h", 760, 0)
	probes := row("interleaved", "h", 760, 0)
	probes.Counters["sink.resolver.probes"] = uint64(1)
	tests := []struct {
		name string
		rows []SinkBenchRow
		ok   bool
	}{
		{"identical", []SinkBenchRow{ref, ref, ref}, true},
		{"other counters may differ", []SinkBenchRow{ref, probes}, true},
		{"streams compared separately", []SinkBenchRow{ref, row("keyed", "k", 5, 1), row("keyed", "k", 5, 1)}, true},
		{"hash", []SinkBenchRow{ref, row("interleaved", "x", 760, 0)}, false},
		{"marks verified", []SinkBenchRow{ref, row("interleaved", "h", 759, 0)}, false},
		{"stops", []SinkBenchRow{ref, row("interleaved", "h", 760, 1)}, false},
		{"later row on a stream", []SinkBenchRow{ref, row("keyed", "k", 5, 1), ref, row("keyed", "k", 5, 2)}, false},
	}
	for _, tt := range tests {
		if err := checkSinkRows(tt.rows); (err == nil) != tt.ok {
			t.Errorf("%s: err = %v, want ok %v", tt.name, err, tt.ok)
		}
	}
}
