package experiment

import (
	"fmt"

	"pnm/internal/analytic"
	"pnm/internal/marking"
	"pnm/internal/parallel"
	"pnm/internal/sim"
	"pnm/internal/stats"
)

// MolePosConfig parameterizes the colluder-position sweep: how quickly the
// sink localizes a tampering forwarding mole as a function of its distance
// from the source.
type MolePosConfig struct {
	// Forwarders is the path length n.
	Forwarders int
	// Attack is the colluder's behaviour (default AttackRemove).
	Attack sim.AttackKind
	// Positions are the mole positions swept (1 = adjacent to source).
	Positions []int
	// Runs per position.
	Runs int
	// MaxPackets bounds each run.
	MaxPackets int
	// Seed drives the runs.
	Seed int64
}

// DefaultMolePos sweeps a 12-hop path.
func DefaultMolePos() MolePosConfig {
	return MolePosConfig{
		Forwarders: 12,
		Attack:     sim.AttackRemove,
		Positions:  []int{2, 4, 6, 8, 10},
		Runs:       40,
		MaxPackets: 500,
		Seed:       14,
	}
}

// MolePosRow is one position's outcome.
type MolePosRow struct {
	// Position is the mole's slot (1 = next to the source).
	Position int
	// AvgPackets is the mean packets until the verdict stably localizes a
	// mole (source or colluder) in its suspected neighborhood.
	AvgPackets float64
	// Localized is the fraction of runs that stabilized in budget.
	Localized float64
}

// MolePos runs the sweep under PNM.
func MolePos(cfg MolePosConfig) ([]MolePosRow, error) {
	p := analytic.ProbabilityForMarks(cfg.Forwarders, 3)
	attack := cfg.Attack
	if attack == "" {
		attack = sim.AttackRemove
	}
	var rows []MolePosRow
	for _, pos := range cfg.Positions {
		perRun, err := parallel.RunN(cfg.Runs, func(run int) (catchRun, error) {
			r, err := sim.NewChainRunner(sim.ChainConfig{
				Forwarders: cfg.Forwarders,
				Scheme:     marking.PNM{P: p},
				Attack:     attack,
				MolePos:    pos,
				Seed:       cfg.Seed + int64(run)*101 + int64(pos),
			})
			if err != nil {
				return catchRun{}, err
			}
			lastBad := -1
			for i := 0; i < cfg.MaxPackets; i++ {
				r.Step()
				if !r.SecurityHolds() {
					lastBad = i
				}
			}
			return catchRun{
				identified: lastBad < cfg.MaxPackets-1,
				needed:     float64(lastBad + 2),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		var needed []float64
		localized := 0
		for _, res := range perRun {
			if res.identified {
				localized++
				needed = append(needed, res.needed)
			}
		}
		rows = append(rows, MolePosRow{
			Position:   pos,
			AvgPackets: stats.Mean(needed),
			Localized:  float64(localized) / float64(cfg.Runs),
		})
	}
	return rows, nil
}

// RenderMolePos formats the sweep.
func RenderMolePos(rows []MolePosRow) string {
	var tb stats.Table
	tb.AddRow("mole position (from source)", "avg packets to localize", "localized")
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprintf("%d", r.Position),
			fmt.Sprintf("%.1f", r.AvgPackets),
			fmt.Sprintf("%.0f%%", 100*r.Localized),
		)
	}
	return tb.String()
}
