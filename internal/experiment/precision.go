package experiment

import (
	"fmt"
	"math/rand"

	"pnm/internal/analytic"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/parallel"
	"pnm/internal/sim"
	"pnm/internal/stats"
	"pnm/internal/topology"
)

// PrecisionRow quantifies §7's "Traceback Precision" discussion: PNM
// localizes a mole to a one-hop neighborhood, never to a specific node, so
// the suspect-set size is the topology's degree plus one.
type PrecisionRow struct {
	// Topology names the network shape.
	Topology string
	// Nodes is the network size.
	Nodes int
	// AvgSuspects is the mean suspected-neighborhood size.
	AvgSuspects float64
	// MoleInHood is the fraction of runs with a mole inside the suspects.
	MoleInHood float64
	// StopAdjacent is the fraction of runs whose stop node is the mole's
	// direct next hop (the best precision marking alone can deliver).
	StopAdjacent float64
}

// PrecisionConfig parameterizes the precision measurement.
type PrecisionConfig struct {
	// Runs per topology.
	Runs int
	// Packets per run.
	Packets int
	// Seed drives placements and marking.
	Seed int64
}

// DefaultPrecision returns a modest configuration.
func DefaultPrecision() PrecisionConfig {
	return PrecisionConfig{Runs: 40, Packets: 300, Seed: 9}
}

// Precision measures suspect-set sizes across topology families.
func Precision(cfg PrecisionConfig) ([]PrecisionRow, error) {
	type builder struct {
		name  string
		build func(seed int64) (*topology.Network, error)
	}
	builders := []builder{
		{"chain", func(int64) (*topology.Network, error) { return topology.NewChain(21) }},
		{"grid", func(int64) (*topology.Network, error) {
			return topology.NewGrid(topology.GridConfig{Width: 8, Height: 8, Spacing: 1, RadioRange: 1.2})
		}},
		{"geometric", func(seed int64) (*topology.Network, error) {
			return topology.NewRandomGeometric(topology.GeometricConfig{
				Nodes: 150, Side: 8, RadioRange: 1.5, Seed: seed,
			})
		}},
	}
	// One parallel run: builds its own topology, keys and tracker, and
	// reports the topology's size, whether it produced a verdict, and the
	// per-run measurements.
	type precisionRun struct {
		nodes            int
		hasVerdict       bool
		suspects         float64
		inHood, adjacent bool
	}
	var rows []PrecisionRow
	for _, b := range builders {
		perRun, err := parallel.RunN(cfg.Runs, func(run int) (precisionRun, error) {
			topo, err := b.build(cfg.Seed + int64(run))
			if err != nil {
				return precisionRun{}, err
			}
			src := topo.DeepestNode()
			fwd := topo.Forwarders(src)
			if len(fwd) < 2 {
				return precisionRun{nodes: topo.NumNodes()}, nil
			}
			scheme := marking.PNM{P: analytic.ProbabilityForMarks(len(fwd), 3)}
			keys := mac.NewKeyStore([]byte(fmt.Sprintf("precision-%d", run)))
			net := &sim.Net{
				Topo:   topo,
				Keys:   keys,
				Scheme: scheme,
				Moles:  map[packet.NodeID]*mole.Forwarder{},
				Env:    &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{src: keys.Key(src)}},
			}
			tracker, err := net.NewTracker()
			if err != nil {
				return precisionRun{}, err
			}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(run)*13))
			srcMole := &mole.Source{ID: src, Base: packet.Report{Event: 0xF00}, Behavior: mole.MarkNever}
			for i := 0; i < cfg.Packets; i++ {
				msg := srcMole.Next(net.Env, rng)
				if out, ok := net.Deliver(src, msg, rng); ok {
					tracker.Observe(out, 0)
				}
			}
			v := tracker.Verdict()
			if !v.HasStop {
				return precisionRun{nodes: topo.NumNodes()}, nil
			}
			return precisionRun{
				nodes:      topo.NumNodes(),
				hasVerdict: true,
				suspects:   float64(len(v.Suspects)),
				inHood:     v.SuspectsContain(src),
				adjacent:   v.Stop == fwd[0],
			}, nil
		})
		if err != nil {
			return nil, err
		}
		var suspects []float64
		nodes, inHood, adjacent := 0, 0, 0
		for _, res := range perRun {
			nodes = res.nodes
			if !res.hasVerdict {
				continue
			}
			suspects = append(suspects, res.suspects)
			if res.inHood {
				inHood++
			}
			if res.adjacent {
				adjacent++
			}
		}
		rows = append(rows, PrecisionRow{
			Topology:     b.name,
			Nodes:        nodes,
			AvgSuspects:  stats.Mean(suspects),
			MoleInHood:   float64(inHood) / float64(cfg.Runs),
			StopAdjacent: float64(adjacent) / float64(cfg.Runs),
		})
	}
	return rows, nil
}

// RenderPrecision formats the precision rows.
func RenderPrecision(rows []PrecisionRow) string {
	var tb stats.Table
	tb.AddRow("topology", "nodes", "avg suspects", "mole in neighborhood", "stop at mole's next hop")
	for _, r := range rows {
		tb.AddRow(
			r.Topology,
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%.1f", r.AvgSuspects),
			fmt.Sprintf("%.0f%%", 100*r.MoleInHood),
			fmt.Sprintf("%.0f%%", 100*r.StopAdjacent),
		)
	}
	return tb.String()
}

// OverheadRow is one scheme's per-packet wire cost at one path length.
type OverheadRow struct {
	// Scheme is the marking scheme.
	Scheme string
	// PathLen is the forwarding path length.
	PathLen int
	// AvgBytes is the mean delivered wire size.
	AvgBytes float64
	// MarksPerPacket is the mean marks carried.
	MarksPerPacket float64
}

// OverheadConfig parameterizes the wire-overhead measurement.
type OverheadConfig struct {
	// PathLens are the path lengths swept.
	PathLens []int
	// Packets per measurement.
	Packets int
	// MarksPerPacket is np for the probabilistic schemes.
	MarksPerPacket float64
	// Seed drives marking decisions.
	Seed int64
}

// DefaultOverhead matches the paper's path lengths.
func DefaultOverhead() OverheadConfig {
	return OverheadConfig{PathLens: []int{10, 20, 30}, Packets: 500, MarksPerPacket: 3, Seed: 10}
}

// Overhead measures delivered packet sizes per scheme: the trade the
// paper's §4 motivates — deterministic nested marking costs one mark per
// hop, PNM amortizes to np marks at slightly wider (anonymous) marks.
func Overhead(cfg OverheadConfig) ([]OverheadRow, error) {
	// Each (path length, scheme) measurement is an independent clean run;
	// fan the flattened units out and keep the row order.
	type unit struct {
		n      int
		scheme marking.Scheme
	}
	var units []unit
	for _, n := range cfg.PathLens {
		p := analytic.ProbabilityForMarks(n, cfg.MarksPerPacket)
		for _, s := range []marking.Scheme{
			marking.Nested{},
			marking.PNM{P: p},
			marking.NaiveProbNested{P: p},
			marking.AMS{P: p},
			marking.PPM{P: p},
		} {
			units = append(units, unit{n: n, scheme: s})
		}
	}
	rows, err := parallel.RunN(len(units), func(i int) (OverheadRow, error) {
		u := units[i]
		r, err := sim.NewChainRunner(sim.ChainConfig{
			Forwarders: u.n,
			Scheme:     u.scheme,
			Attack:     sim.AttackNone,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return OverheadRow{}, err
		}
		// In a clean run the sink accepts every honest mark, so the
		// accepted-chain length equals the marks carried on the wire.
		totalMarks := 0
		for i := 0; i < cfg.Packets; i++ {
			res, ok := r.Step()
			if !ok {
				continue
			}
			totalMarks += len(res.Chain)
		}
		return OverheadRow{
			Scheme:         u.scheme.Name(),
			PathLen:        u.n,
			AvgBytes:       0,
			MarksPerPacket: float64(totalMarks) / float64(cfg.Packets),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return fillOverheadBytes(rows), nil
}

// fillOverheadBytes converts mark counts to wire bytes per scheme.
func fillOverheadBytes(rows []OverheadRow) []OverheadRow {
	plain := packet.Mark{}
	anon := packet.Mark{Anonymous: true}
	for i := range rows {
		width := plain.EncodedLen()
		if rows[i].Scheme == "pnm" {
			width = anon.EncodedLen()
		}
		rows[i].AvgBytes = float64(packet.ReportLen) + rows[i].MarksPerPacket*float64(width)
	}
	return rows
}

// RenderOverhead formats the overhead rows.
func RenderOverhead(rows []OverheadRow) string {
	var tb stats.Table
	tb.AddRow("scheme", "path", "marks/pkt", "bytes/pkt")
	for _, r := range rows {
		tb.AddRow(
			r.Scheme,
			fmt.Sprintf("%d", r.PathLen),
			fmt.Sprintf("%.2f", r.MarksPerPacket),
			fmt.Sprintf("%.1f", r.AvgBytes),
		)
	}
	return tb.String()
}
