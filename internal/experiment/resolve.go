package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pnm/internal/analytic"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/stats"
	"pnm/internal/topology"
)

// ResolveRow compares the two anonymous-ID resolution strategies at one
// network size (E7/E8: §4.2 feasibility and the §7 O(d) optimization).
type ResolveRow struct {
	// Nodes is the network size.
	Nodes int
	// AvgDegree is the mean radio degree d.
	AvgDegree float64
	// PathLen is the test path's hop count.
	PathLen int
	// ExhaustivePerPacket and TopologyPerPacket are mean verification
	// times per packet under each resolver.
	ExhaustivePerPacket time.Duration
	TopologyPerPacket   time.Duration
	// Speedup is exhaustive/topology.
	Speedup float64
}

// ResolveConfig parameterizes the comparison.
type ResolveConfig struct {
	// Sizes are the network sizes to compare (paper argues feasibility for
	// "a few thousand nodes").
	Sizes []int
	// Packets is how many marked packets to verify per size.
	Packets int
	// Seed drives the topology and marking.
	Seed int64
	// Obs, when non-nil, accumulates the sink chain's counters across
	// every size and resolver (pnmsim -stats).
	Obs *obs.Registry
}

// DefaultResolve returns sizes up to the paper's "few thousand nodes".
func DefaultResolve() ResolveConfig {
	return ResolveConfig{Sizes: []int{256, 1024, 4096}, Packets: 50, Seed: 6}
}

// ResolveComparison measures sink verification time per packet under the
// exhaustive table and the topology-restricted subtree search.
//
// Unlike the run-averaged experiments this one deliberately stays serial:
// its output is wall-clock time per packet, and fanning the measurements
// across workers would make them contend for cores and memory bandwidth,
// corrupting exactly the quantity being reported. Keep it off the
// parallel.RunN engine.
func ResolveComparison(cfg ResolveConfig) ([]ResolveRow, error) {
	var rows []ResolveRow
	for _, n := range cfg.Sizes {
		topo, err := geometricOfSize(n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		keys := mac.NewKeyStore([]byte("resolve-bench"))
		src := topo.DeepestNode()
		hops := topo.Depth(src) - 1
		if hops < 1 {
			return nil, fmt.Errorf("experiment: degenerate topology at size %d", n)
		}
		scheme := marking.PNM{P: analytic.ProbabilityForMarks(hops, 3)}
		rng := rand.New(rand.NewSource(cfg.Seed))

		// Pre-generate marked packets once; verify with both resolvers.
		msgs := make([]packet.Message, cfg.Packets)
		for i := range msgs {
			msg := packet.Message{Report: packet.Report{Event: 0xE, Seq: uint32(i + 1)}}
			for _, hop := range topo.Forwarders(src) {
				msg = scheme.Mark(hop, keys.Key(hop), msg, rng)
			}
			msgs[i] = msg
		}

		exh, err := timeVerify(scheme, keys, topo, sink.NewExhaustiveResolver(keys, topo.Nodes()), msgs, cfg.Obs)
		if err != nil {
			return nil, err
		}
		topoT, err := timeVerify(scheme, keys, topo, sink.NewTopologyResolver(keys, topo), msgs, cfg.Obs)
		if err != nil {
			return nil, err
		}
		row := ResolveRow{
			Nodes:               n,
			AvgDegree:           topo.AvgDegree(),
			PathLen:             hops,
			ExhaustivePerPacket: exh,
			TopologyPerPacket:   topoT,
		}
		if topoT > 0 {
			row.Speedup = float64(exh) / float64(topoT)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// geometricOfSize builds a connected random geometric network of the
// requested size with average degree just above the connectivity
// threshold.
func geometricOfSize(n int, seed int64) (*topology.Network, error) {
	// Scale the side with sqrt(n) at range 1, keeping the average degree
	// just above the random-geometric connectivity threshold (~ln n).
	degree := math.Log(float64(n)) + 5
	side := math.Sqrt(float64(n) * math.Pi / degree)
	return topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes:        n,
		Side:         side,
		RadioRange:   1,
		Seed:         seed,
		SinkAtCorner: true,
	})
}

// timeVerify measures mean steady-state verification time per packet.
// A first, untimed pass pays the once-per-sink costs (key derivation,
// schedule-core builds, the routing-tree build) and is the pass reg
// counts. With the counters unbound it then times macRounds passes
// and reports the fastest: one pass lasts well under a millisecond at
// small sizes, so one host preemption can double it, and the fastest
// pass is the one that ran undisturbed (the rule macBench uses).
func timeVerify(scheme marking.Scheme, keys *mac.KeyStore, topo *topology.Network, r sink.Resolver, msgs []packet.Message, reg *obs.Registry) (time.Duration, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	v, err := sink.NewVerifier(scheme, keys, topo.NumNodes(), r)
	if err != nil {
		return 0, err
	}
	ins, _ := v.(sink.Instrumentable)
	if ins != nil && reg != nil {
		ins.Instrument(reg)
	}
	for _, m := range msgs {
		v.Verify(m, 0)
	}
	if ins != nil && reg != nil {
		ins.Instrument(nil)
	}
	best := time.Duration(math.MaxInt64)
	for range macRounds {
		//pnmlint:allow wallclock E7/E8 report real verification latency per packet
		start := time.Now()
		for _, m := range msgs {
			v.Verify(m, 0)
		}
		//pnmlint:allow wallclock E7/E8 report real verification latency per packet
		best = min(best, time.Since(start))
	}
	return best / time.Duration(len(msgs)), nil
}

// RenderResolve formats the comparison.
func RenderResolve(rows []ResolveRow) string {
	var tb stats.Table
	tb.AddRow("nodes", "avg degree", "path", "exhaustive/pkt", "topology/pkt", "speedup")
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%.1f", r.AvgDegree),
			fmt.Sprintf("%d", r.PathLen),
			r.ExhaustivePerPacket.String(),
			r.TopologyPerPacket.String(),
			fmt.Sprintf("%.1fx", r.Speedup),
		)
	}
	return tb.String()
}
