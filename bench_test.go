package pnm

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`). Each figure/table bench
// reports its headline quantity via b.ReportMetric so the paper-vs-measured
// comparison in EXPERIMENTS.md can be reproduced from the bench output
// alone; cmd/pnmsim prints the full series.

import (
	"math/rand"
	"testing"

	"pnm/internal/analytic"
	"pnm/internal/experiment"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// BenchmarkFig4 regenerates the analytic collection-probability curves
// (Figure 4) and reports the 90%-confidence packet counts the paper quotes
// (13/33/54 for n=10/20/30).
func BenchmarkFig4(b *testing.B) {
	var p90n20 int
	for i := 0; i < b.N; i++ {
		_ = experiment.Fig4(experiment.DefaultFig4())
		p90n20 = analytic.PacketsForConfidence(20, analytic.ProbabilityForMarks(20, 3), 0.9)
	}
	b.ReportMetric(float64(p90n20), "pkts_90pct_n20")
	b.ReportMetric(float64(analytic.PacketsForConfidence(10, 0.3, 0.9)), "pkts_90pct_n10")
	b.ReportMetric(float64(analytic.PacketsForConfidence(30, 0.1, 0.9)), "pkts_90pct_n30")
}

// BenchmarkFig5 regenerates the simulated mark-collection curves
// (Figure 5) and reports the percentage of a 10-hop path collected within
// 7 packets (the paper: ~90%).
func BenchmarkFig5(b *testing.B) {
	cfg := experiment.Fig5Config{
		PathLens: []int{10}, MarksPerPacket: 3, MaxPackets: 20, Runs: 100, Seed: 1,
	}
	var at7 float64
	for i := 0; i < b.N; i++ {
		series, err := experiment.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		at7 = series[0].Y[6]
	}
	b.ReportMetric(at7, "pct_collected_7pkts_n10")
}

// BenchmarkFig6 regenerates the identification-failure counts (Figure 6)
// and reports failures out of the run count at 200 packets for a 20-hop
// path (the paper: ~0).
func BenchmarkFig6(b *testing.B) {
	cfg := experiment.Fig67Config{
		PathLens: []int{20}, MarksPerPacket: 3, Traffics: []int{200}, Runs: 30, Seed: 2,
	}
	var failures float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig67(cfg)
		if err != nil {
			b.Fatal(err)
		}
		failures = res.Failures[0].Y[0]
	}
	b.ReportMetric(failures/float64(cfg.Runs), "failure_rate_200pkts_n20")
}

// BenchmarkFig7 regenerates the packets-to-identify curve (Figure 7) and
// reports the mean for a 20-hop path (the paper: ~55).
func BenchmarkFig7(b *testing.B) {
	cfg := experiment.Fig67Config{
		PathLens: []int{20}, MarksPerPacket: 3, Traffics: []int{800}, Runs: 30, Seed: 2,
	}
	var avg float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig67(cfg)
		if err != nil {
			b.Fatal(err)
		}
		avg = res.AvgPackets.Y[0]
	}
	b.ReportMetric(avg, "avg_pkts_to_identify_n20")
}

// BenchmarkSecurityMatrix regenerates the scheme-by-attack security matrix
// (the executable form of §3 and §5) and reports how many of the five
// schemes stay one-hop precise under every applicable attack (the paper:
// 2 — nested and PNM).
func BenchmarkSecurityMatrix(b *testing.B) {
	cfg := experiment.MatrixConfig{Forwarders: 10, MarksPerPacket: 3, Packets: 300, Seed: 3}
	var fullySecure float64
	for i := 0; i < b.N; i++ {
		cells, err := experiment.SecurityMatrix(cfg)
		if err != nil {
			b.Fatal(err)
		}
		secure := map[string]bool{}
		for _, c := range cells {
			if _, ok := secure[c.Scheme]; !ok {
				secure[c.Scheme] = true
			}
			if !c.Secure && !c.SelfDefeating {
				secure[c.Scheme] = false
			}
		}
		fullySecure = 0
		for _, ok := range secure {
			if ok {
				fullySecure++
			}
		}
	}
	b.ReportMetric(fullySecure, "schemes_secure_under_all_attacks")
}

// BenchmarkHeadline regenerates the headline claim (§1/§6/§9): packets to
// catch a mole 20 hops away (the paper: ~50) and the Mica2 latency.
func BenchmarkHeadline(b *testing.B) {
	cfg := experiment.HeadlineConfig{
		PathLens: []int{20}, MarksPerPacket: 3, Runs: 20, MaxPackets: 400, Seed: 4,
	}
	var row experiment.HeadlineRow
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Headline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		row = rows[0]
	}
	b.ReportMetric(row.AvgPackets, "pkts_to_catch_20hops")
	b.ReportMetric(row.Latency.Seconds(), "latency_s_20hops")
}

// BenchmarkAblationP regenerates the marking-probability trade-off (E10)
// and reports packets-to-catch at np=1 vs np=3.
func BenchmarkAblationP(b *testing.B) {
	cfg := experiment.AblationConfig{
		Forwarders:           10,
		MarksPerPacketValues: []float64{1, 3},
		Runs:                 15,
		MaxPackets:           600,
		Seed:                 5,
	}
	var rows []experiment.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.AblateMarkingProbability(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].AvgPackets, "pkts_np1")
	b.ReportMetric(rows[1].AvgPackets, "pkts_np3")
}

// BenchmarkFilterCompare regenerates the filtering-vs-traceback table
// (E11) and reports the time-to-catch at q=0.1.
func BenchmarkFilterCompare(b *testing.B) {
	cfg := experiment.DefaultFilterCompare()
	var rows []experiment.FilterCompareRow
	for i := 0; i < b.N; i++ {
		rows = experiment.FilterCompare(cfg)
	}
	for _, r := range rows {
		if r.Q == 0.1 {
			b.ReportMetric(r.SecondsToCatch, "s_to_catch_q0.1")
		}
	}
}

// benchNet builds a geometric network, key store and a PNM-marked packet
// batch for the sink-side micro benches.
func benchNet(b *testing.B, nodes int) (*topology.Network, *mac.KeyStore, marking.Scheme, []packet.Message) {
	b.Helper()
	side := 1.0
	for side*side*8 < float64(nodes) {
		side *= 1.1
	}
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: nodes, Side: side, RadioRange: 1, Seed: 6, SinkAtCorner: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	keys := mac.NewKeyStore([]byte("bench"))
	src := topo.DeepestNode()
	hops := topo.Depth(src) - 1
	scheme := marking.PNM{P: analytic.ProbabilityForMarks(hops, 3)}
	rng := rand.New(rand.NewSource(7))
	msgs := make([]packet.Message, 64)
	for i := range msgs {
		msg := packet.Message{Report: packet.Report{Event: 0xB, Seq: uint32(i + 1)}}
		for _, hop := range topo.Forwarders(src) {
			msg = scheme.Mark(hop, keys.Key(hop), msg, rng)
		}
		msgs[i] = msg
	}
	return topo, keys, scheme, msgs
}

// BenchmarkAnonTableBuild measures building the per-report anonymous-ID
// table for a 1024-node network — §4.2 argues this takes milliseconds for
// a few thousand nodes.
func BenchmarkAnonTableBuild(b *testing.B) {
	topo, keys, _, _ := benchNet(b, 1024)
	nodes := topo.Nodes()
	resolver := sink.NewExhaustiveResolver(keys, nodes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh report defeats the cache, forcing a full table build.
		rep := packet.Report{Event: 1, Seq: uint32(i + 1)}
		anon := mac.AnonID(keys.Key(nodes[0]), rep, nodes[0])
		sink.ResolveAll(resolver, rep, anon, 0, false, 0)
	}
}

// benchInterleaved verifies an interleaved multi-source stream — consecutive
// packets carry different reports — under an exhaustive resolver with the
// given table-cache capacity. Capacity 1 reproduces the old single-report
// cache; the default LRU capacity covers the live report working set.
func benchInterleaved(b *testing.B, capacity int) {
	topo, keys, scheme, _ := benchNet(b, 1024)
	const sources = 8
	rng := rand.New(rand.NewSource(11))
	msgs := make([]packet.Message, sources)
	for i := range msgs {
		msg := packet.Message{Report: packet.Report{Event: 0xC, Location: uint32(i), Seq: 1}}
		src := topo.DeepestNode()
		for _, hop := range topo.Forwarders(src) {
			msg = scheme.Mark(hop, keys.Key(hop), msg, rng)
		}
		msgs[i] = msg
	}
	v, err := sink.NewVerifier(scheme, keys, topo.NumNodes(),
		sink.NewExhaustiveResolverCache(keys, topo.Nodes(), capacity))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Round-robin across sources: every packet switches reports.
		v.Verify(msgs[i%len(msgs)], 0)
	}
}

// BenchmarkVerifyInterleavedSingleEntry measures the pre-LRU behavior: a
// capacity-1 table cache rebuilds the O(n) anonymous-ID table on every
// packet of an interleaved multi-source stream.
func BenchmarkVerifyInterleavedSingleEntry(b *testing.B) {
	benchInterleaved(b, 1)
}

// BenchmarkVerifyInterleavedLRU measures the same stream with the default
// LRU capacity, which holds every live report's table.
func BenchmarkVerifyInterleavedLRU(b *testing.B) {
	benchInterleaved(b, sink.DefaultTableCacheSize)
}

// BenchmarkSinkVerifyPNM measures full packet verification with the
// exhaustive resolver — the paper claims several hundred packets per
// second suffice for sensor data rates.
func BenchmarkSinkVerifyPNM(b *testing.B) {
	topo, keys, scheme, msgs := benchNet(b, 1024)
	v, err := sink.NewVerifier(scheme, keys, topo.NumNodes(), sink.NewExhaustiveResolver(keys, topo.Nodes()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Verify(msgs[i%len(msgs)], 0)
	}
}

// BenchmarkResolveExhaustive and BenchmarkResolveTopology compare the two
// anonymous-ID resolution strategies (§7's O(d) optimization, E8).
func BenchmarkResolveExhaustive(b *testing.B) {
	benchResolve(b, false)
}

// BenchmarkResolveTopology is the O(d) ring-expanding counterpart.
func BenchmarkResolveTopology(b *testing.B) {
	benchResolve(b, true)
}

// benchResolve runs packet verification under the chosen resolver.
func benchResolve(b *testing.B, topoResolver bool) {
	topo, keys, scheme, msgs := benchNet(b, 1024)
	var r sink.Resolver
	if topoResolver {
		r = sink.NewTopologyResolver(keys, topo)
	} else {
		r = sink.NewExhaustiveResolver(keys, topo.Nodes())
	}
	v, err := sink.NewVerifier(scheme, keys, topo.NumNodes(), r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Verify(msgs[i%len(msgs)], 0)
	}
}

// BenchmarkMarkPNM measures the node-side cost of one PNM marking decision
// plus mark computation — the per-hop work a Mica2-class node would do.
func BenchmarkMarkPNM(b *testing.B) {
	benchMark(b, marking.PNM{P: 1})
}

// BenchmarkMarkNested measures basic nested marking's per-hop cost.
func BenchmarkMarkNested(b *testing.B) {
	benchMark(b, marking.Nested{})
}

// BenchmarkMarkAMS measures the AMS baseline's per-hop cost.
func BenchmarkMarkAMS(b *testing.B) {
	benchMark(b, marking.AMS{P: 1})
}

// benchMark drives one scheme's Mark on a message carrying three marks.
func benchMark(b *testing.B, scheme marking.Scheme) {
	keys := mac.NewKeyStore([]byte("bench"))
	rng := rand.New(rand.NewSource(8))
	msg := packet.Message{Report: packet.Report{Event: 2, Seq: 9}}
	for _, id := range []packet.NodeID{5, 4, 3} {
		msg = marking.Nested{}.Mark(id, keys.Key(id), msg, rng)
	}
	key := keys.Key(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scheme.Mark(2, key, msg, rng)
	}
}

// BenchmarkOrderAddChain measures folding one verified chain into the
// route-reconstruction matrix.
func BenchmarkOrderAddChain(b *testing.B) {
	chains := make([][]packet.NodeID, 32)
	rng := rand.New(rand.NewSource(9))
	for i := range chains {
		n := 2 + rng.Intn(4)
		c := make([]packet.NodeID, n)
		for j := range c {
			c[j] = packet.NodeID(1 + rng.Intn(30))
		}
		chains[i] = c
	}
	b.ResetTimer()
	order := sink.NewOrder()
	for i := 0; i < b.N; i++ {
		order.AddChain(chains[i%len(chains)])
		if i%4096 == 0 {
			order = sink.NewOrder() // bound growth
		}
	}
}

// BenchmarkKeyedHash measures the raw MAC primitive, the unit the paper's
// "2.5 million hashes per second" feasibility argument is stated in.
func BenchmarkKeyedHash(b *testing.B) {
	keys := mac.NewKeyStore([]byte("bench"))
	k := keys.Key(1)
	data := make([]byte, 48)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mac.Sum(k, data)
	}
}
