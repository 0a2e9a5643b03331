package experiment

import (
	"fmt"

	"pnm/internal/isolation"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/parallel"
	"pnm/internal/sim"
	"pnm/internal/stats"
	"pnm/internal/topology"
)

// MultiSourceRow measures the iterative catch-and-quarantine campaign with
// several simultaneous source moles — the multi-source reconstruction the
// paper leaves as future work (§9), handled here by quarantining the
// candidate-source set one neighborhood per round.
type MultiSourceRow struct {
	// Sources is the number of simultaneous source moles.
	Sources int
	// AvgRounds is the mean campaign rounds until no bogus traffic
	// reaches the sink.
	AvgRounds float64
	// AllCutOff is the fraction of runs where every source was cut off
	// within the round budget.
	AllCutOff float64
	// MolesLocalized is the fraction of sources that appeared inside some
	// verdict's suspected neighborhood.
	MolesLocalized float64
	// AvgQuarantined is the mean number of quarantined nodes (the
	// collateral cost of neighborhood-precision verdicts).
	AvgQuarantined float64
}

// MultiSourceConfig parameterizes the campaign sweep.
type MultiSourceConfig struct {
	// SourceCounts are the simultaneous-mole counts swept.
	SourceCounts []int
	// Runs per count.
	Runs int
	// MaxRounds bounds each campaign.
	MaxRounds int
	// PacketsPerRound is the per-source injection volume per round.
	PacketsPerRound int
	// Seed drives placement and marking.
	Seed int64
}

// DefaultMultiSource returns a 9x9-grid sweep of 1..4 moles.
func DefaultMultiSource() MultiSourceConfig {
	return MultiSourceConfig{
		SourceCounts:    []int{1, 2, 3, 4},
		Runs:            10,
		MaxRounds:       10,
		PacketsPerRound: 250,
		Seed:            11,
	}
}

// MultiSource runs the sweep. Campaign runs are independent (each builds
// its own grid, key store and campaign) and fan out across GOMAXPROCS
// workers.
func MultiSource(cfg MultiSourceConfig) ([]MultiSourceRow, error) {
	// One campaign run's contribution to the aggregates.
	type multiRun struct {
		placed      bool // enough spread moles found
		cutOff      bool
		rounds      float64
		quarantined float64
		localized   int
		sources     int
	}
	var rows []MultiSourceRow
	for _, count := range cfg.SourceCounts {
		perRun, err := parallel.RunN(cfg.Runs, func(run int) (multiRun, error) {
			topo, err := topology.NewGrid(topology.GridConfig{
				Width: 9, Height: 9, Spacing: 1, RadioRange: 1.1,
			})
			if err != nil {
				return multiRun{}, err
			}
			srcs := pickSpreadMoles(topo, count, cfg.Seed+int64(run))
			if len(srcs) < count {
				return multiRun{}, nil
			}
			keys := mac.NewKeyStore([]byte(fmt.Sprintf("multi-%d-%d", count, run)))
			scheme := marking.PNM{P: 0.35}
			stolen := make(map[packet.NodeID]mac.Key, count)
			sources := make([]*mole.Source, 0, count)
			for i, s := range srcs {
				stolen[s] = keys.Key(s)
				sources = append(sources, &mole.Source{
					ID:       s,
					Base:     packet.Report{Event: uint32(0xA0 + i), Location: uint32(s)},
					Behavior: mole.MarkNever,
				})
			}
			net := &sim.Net{
				Topo:   topo,
				Keys:   keys,
				Scheme: scheme,
				Moles:  map[packet.NodeID]*mole.Forwarder{},
				Env:    &mole.Env{Scheme: scheme, StolenKeys: stolen},
			}
			c := isolation.NewCampaign(net, sources, cfg.Seed+int64(run)*17)
			verdicts, err := c.Run(cfg.MaxRounds, cfg.PacketsPerRound)
			res := multiRun{
				placed:      true,
				quarantined: float64(c.Manager.Count()),
				sources:     len(srcs),
			}
			if err == nil && len(c.ActiveSources()) == 0 {
				res.cutOff = true
				res.rounds = float64(len(verdicts))
			}
			for _, s := range srcs {
				for _, v := range verdicts {
					if v.SuspectsContain(s) {
						res.localized++
						break
					}
				}
			}
			return res, nil
		})
		if err != nil {
			return nil, err
		}
		var rounds []float64
		var quarantined []float64
		cutOff, localized, totalSources := 0, 0, 0
		for _, res := range perRun {
			if !res.placed {
				continue
			}
			if res.cutOff {
				cutOff++
				rounds = append(rounds, res.rounds)
			}
			quarantined = append(quarantined, res.quarantined)
			localized += res.localized
			totalSources += res.sources
		}
		rows = append(rows, MultiSourceRow{
			Sources:        count,
			AvgRounds:      stats.Mean(rounds),
			AllCutOff:      float64(cutOff) / float64(cfg.Runs),
			MolesLocalized: float64(localized) / float64(totalSources),
			AvgQuarantined: stats.Mean(quarantined),
		})
	}
	return rows, nil
}

// pickSpreadMoles selects count deep nodes spread across the field so the
// moles occupy distinct branches where possible.
func pickSpreadMoles(topo *topology.Network, count int, seed int64) []packet.NodeID {
	var candidates []packet.NodeID
	minDepth := topo.MaxDepth() / 2
	for _, id := range topo.Nodes() {
		if topo.Depth(id) >= minDepth {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	// Greedy max-min spread, seeded by a deterministic start.
	var picked []packet.NodeID
	picked = append(picked, candidates[int(seed)%len(candidates)])
	for len(picked) < count {
		best := packet.NodeID(0)
		bestDist := -1.0
		for _, c := range candidates {
			d := minDistTo(topo, c, picked)
			if d > bestDist {
				best, bestDist = c, d
			}
		}
		if bestDist <= 0 {
			break
		}
		picked = append(picked, best)
	}
	return picked
}

// minDistTo returns the minimum Euclidean distance from c to picked nodes.
func minDistTo(topo *topology.Network, c packet.NodeID, picked []packet.NodeID) float64 {
	min := -1.0
	pc := topo.Position(c)
	for _, p := range picked {
		pp := topo.Position(p)
		dx, dy := pc.X-pp.X, pc.Y-pp.Y
		d := dx*dx + dy*dy
		if min < 0 || d < min {
			min = d
		}
	}
	return min
}

// RenderMultiSource formats the sweep.
func RenderMultiSource(rows []MultiSourceRow) string {
	var tb stats.Table
	tb.AddRow("sources", "avg rounds", "all cut off", "moles localized", "avg quarantined")
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprintf("%d", r.Sources),
			fmt.Sprintf("%.1f", r.AvgRounds),
			fmt.Sprintf("%.0f%%", 100*r.AllCutOff),
			fmt.Sprintf("%.0f%%", 100*r.MolesLocalized),
			fmt.Sprintf("%.1f", r.AvgQuarantined),
		)
	}
	return tb.String()
}
