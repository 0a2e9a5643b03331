package pnm

// Benchmarks for the extension tables (E13–E17) and the substrate
// micro-operations. Each experiment bench uses a reduced configuration and
// reports its headline quantity, mirroring bench_test.go's pattern.

import (
	"math/rand"
	"testing"

	"pnm/internal/experiment"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/node"
	"pnm/internal/packet"
	"pnm/internal/replay"
	"pnm/internal/spie"
)

// BenchmarkPrecisionTable regenerates the E13 precision table on the chain
// topology and reports the suspect-set size.
func BenchmarkPrecisionTable(b *testing.B) {
	cfg := experiment.PrecisionConfig{Runs: 4, Packets: 200, Seed: 9}
	var rows []experiment.PrecisionRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Precision(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].AvgSuspects, "chain_avg_suspects")
	b.ReportMetric(rows[0].MoleInHood, "chain_mole_in_hood")
}

// BenchmarkOverheadTable regenerates the E14 wire-overhead table and
// reports PNM's bytes/packet at 20 hops.
func BenchmarkOverheadTable(b *testing.B) {
	cfg := experiment.OverheadConfig{PathLens: []int{20}, Packets: 200, MarksPerPacket: 3, Seed: 10}
	var rows []experiment.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Overhead(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Scheme == "pnm" {
			b.ReportMetric(r.AvgBytes, "pnm_bytes_per_pkt")
		}
		if r.Scheme == "nested" {
			b.ReportMetric(r.AvgBytes, "nested_bytes_per_pkt")
		}
	}
}

// BenchmarkRelatedTable regenerates the E16 related-work comparison.
func BenchmarkRelatedTable(b *testing.B) {
	cfg := experiment.RelatedConfig{PathLen: 10, Packets: 100, NotifyProb: 0.3, Seed: 8}
	var rows []experiment.RelatedRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RelatedComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Approach == "logging (SPIE)" {
			b.ReportMetric(float64(r.PerNodeMemoryBytes), "spie_bytes_per_node")
		}
		if r.Approach == "notification (iTrace)" {
			b.ReportMetric(float64(r.ControlMessages), "itrace_control_msgs")
		}
	}
}

// BenchmarkBackgroundTable regenerates the E17 triage comparison and
// reports the all-traffic candidate count.
func BenchmarkBackgroundTable(b *testing.B) {
	cfg := experiment.BackgroundConfig{LegitSensors: 6, LegitPerRound: 1, MolePerRound: 10, Rounds: 30, Seed: 12}
	var rows []experiment.BackgroundRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.BackgroundTraffic(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Candidates), "all_traffic_candidates")
	b.ReportMetric(float64(rows[1].Candidates), "triaged_candidates")
}

// BenchmarkMultiSourceTable regenerates the E15 campaign sweep at the
// smallest scale and reports rounds for two moles.
func BenchmarkMultiSourceTable(b *testing.B) {
	cfg := experiment.MultiSourceConfig{
		SourceCounts: []int{2}, Runs: 2, MaxRounds: 8, PacketsPerRound: 150, Seed: 11,
	}
	var rows []experiment.MultiSourceRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.MultiSource(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].AvgRounds, "rounds_2_moles")
}

// BenchmarkNodeStackHandle measures the full per-node forwarding stack
// (suppression + filter + quarantine check + nested mark) per packet.
func BenchmarkNodeStackHandle(b *testing.B) {
	keys := mac.NewKeyStore([]byte("bench"))
	stack := node.New(node.Config{
		ID:                 3,
		Key:                keys.Key(3),
		Scheme:             marking.PNM{P: 0.3},
		SuppressorCapacity: 128,
		FilterDetectProb:   0.1,
		Blacklisted:        func(packet.NodeID) bool { return false },
	})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := packet.Message{Report: packet.Report{Event: 1, Seq: uint32(i)}}
		stack.Handle(4, msg, true, rng)
	}
}

// BenchmarkBloomAddContains measures the logging substrate's per-packet
// cost.
func BenchmarkBloomAddContains(b *testing.B) {
	bl := spie.NewBloom(10000, 0.01)
	var d [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d[0] = byte(i)
		d[1] = byte(i >> 8)
		bl.Add(d[:])
		bl.Contains(d[:])
	}
}

// BenchmarkSeqWindowAccept measures the replay defense's per-report cost.
func BenchmarkSeqWindowAccept(b *testing.B) {
	w := replay.NewSeqWindow(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Accept(packet.NodeID(i%16), uint32(i))
	}
}

// BenchmarkMoleTamperPipeline measures a three-stage tamper pipeline.
func BenchmarkMoleTamperPipeline(b *testing.B) {
	keys := mac.NewKeyStore([]byte("bench"))
	rng := rand.New(rand.NewSource(2))
	scheme := marking.NaiveProbNested{P: 1}
	msg := packet.Message{Report: packet.Report{Event: 1}}
	for _, id := range []packet.NodeID{9, 8, 7, 6} {
		msg = scheme.Mark(id, keys.Key(id), msg, rng)
	}
	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{5: keys.Key(5)}}
	fm := &mole.Forwarder{
		ID:       5,
		Behavior: mole.MarkNever,
		Tampers: []mole.Tamper{
			mole.RemoveByID{IDs: []packet.NodeID{9}},
			mole.ReorderFixed{First: []packet.NodeID{7}},
			mole.AlterByID{IDs: []packet.NodeID{8}},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm.Process(msg, env, rng)
	}
}
