package experiment

import (
	"fmt"

	"pnm/internal/analytic"
	"pnm/internal/marking"
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
		perRun, err := catchSweep(cfg.Runs, cfg.MaxPackets, nil, func(run int) sim.ChainConfig {
			return sim.ChainConfig{
				Forwarders: cfg.Forwarders,
				Scheme:     marking.PNM{P: p},
				Attack:     attack,
				MolePos:    pos,
				Seed:       cfg.Seed + int64(run)*101 + int64(pos),
			}
		}, (*sim.Runner).SecurityHolds)
		if err != nil {
			return nil, err
		}
		avg, localized := meanCatch(perRun)
		rows = append(rows, MolePosRow{
			Position:   pos,
			AvgPackets: avg,
			Localized:  localized,
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
