// Package experiment regenerates every figure and table of the paper's
// evaluation (§6) plus the ablations DESIGN.md calls out. Each driver
// returns plain data series/tables that cmd/pnmsim renders and the root
// benchmarks report, so the same code path backs both.
package experiment

import (
	"fmt"

	"pnm/internal/analytic"
	"pnm/internal/marking"
	"pnm/internal/parallel"
	"pnm/internal/sim"
	"pnm/internal/stats"
)

// Fig4Config parameterizes the analytic collection-probability curves.
type Fig4Config struct {
	// PathLens are the n values (paper: 10, 20, 30).
	PathLens []int
	// MarksPerPacket is np (paper: 3).
	MarksPerPacket float64
	// MaxPackets is the L range to sweep.
	MaxPackets int
}

// DefaultFig4 returns the paper's parameters.
func DefaultFig4() Fig4Config {
	return Fig4Config{PathLens: []int{10, 20, 30}, MarksPerPacket: 3, MaxPackets: 80}
}

// Fig4 computes P(all n marks collected within L packets) for each path
// length — the analytic curves of Figure 4.
func Fig4(cfg Fig4Config) []stats.Series {
	out := make([]stats.Series, 0, len(cfg.PathLens))
	for _, n := range cfg.PathLens {
		p := analytic.ProbabilityForMarks(n, cfg.MarksPerPacket)
		s := stats.Series{Name: fmt.Sprintf("n=%d", n)}
		for l := 1; l <= cfg.MaxPackets; l++ {
			s.Add(float64(l), analytic.CollectAllProb(n, p, l))
		}
		out = append(out, s)
	}
	return out
}

// Fig5Config parameterizes the simulated mark-collection experiment.
type Fig5Config struct {
	// PathLens are the n values (paper: 10, 20, 30).
	PathLens []int
	// MarksPerPacket is np (paper: 3).
	MarksPerPacket float64
	// MaxPackets is the x range.
	MaxPackets int
	// Runs is the number of simulation runs averaged (paper: 5000).
	Runs int
	// Seed drives the runs deterministically.
	Seed int64
}

// DefaultFig5 returns the paper's parameters with a run count that keeps
// the full sweep fast; raise Runs to 5000 for the paper's averaging.
func DefaultFig5() Fig5Config {
	return Fig5Config{PathLens: []int{10, 20, 30}, MarksPerPacket: 3, MaxPackets: 60, Runs: 1000, Seed: 1}
}

// Fig5 simulates PNM and reports the average percentage of forwarding
// nodes whose marks the sink has collected within the first x packets.
// Runs are independent and fan out across GOMAXPROCS workers; each builds
// its own runner and derives its seed from the run index alone, and the
// per-run fractions are summed in run order, so the output is
// bit-identical for every worker count.
func Fig5(cfg Fig5Config) ([]stats.Series, error) {
	out := make([]stats.Series, 0, len(cfg.PathLens))
	for _, n := range cfg.PathLens {
		p := analytic.ProbabilityForMarks(n, cfg.MarksPerPacket)
		perRun, err := parallel.RunN(cfg.Runs, func(run int) ([]float64, error) {
			r, err := sim.NewChainRunner(sim.ChainConfig{
				Forwarders: n,
				Scheme:     marking.PNM{P: p},
				Attack:     sim.AttackNone,
				Seed:       cfg.Seed + int64(run)*7919,
			})
			if err != nil {
				return nil, err
			}
			frac := make([]float64, cfg.MaxPackets)
			for x := 0; x < cfg.MaxPackets; x++ {
				r.Step()
				frac[x] = float64(r.Tracker().Order().SeenCount()) / float64(n)
			}
			return frac, nil
		})
		if err != nil {
			return nil, err
		}
		collected := make([]float64, cfg.MaxPackets) // sum of fractions per x
		for _, frac := range perRun {
			for x, f := range frac {
				collected[x] += f
			}
		}
		s := stats.Series{Name: fmt.Sprintf("n=%d", n)}
		for x := 0; x < cfg.MaxPackets; x++ {
			s.Add(float64(x+1), 100*collected[x]/float64(cfg.Runs))
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig67Config parameterizes the unequivocal-identification experiments.
type Fig67Config struct {
	// PathLens are the path lengths swept (paper: 5..50).
	PathLens []int
	// MarksPerPacket is np (paper: 3).
	MarksPerPacket float64
	// Traffics are the packet budgets checked (paper: 200, 400, 600, 800).
	// Fig 7 uses the largest as its fixed budget.
	Traffics []int
	// Runs is the number of runs per setting (paper: 100 for Fig 6).
	Runs int
	// Seed drives the runs deterministically.
	Seed int64
}

// DefaultFig67 returns the paper's parameters.
func DefaultFig67() Fig67Config {
	return Fig67Config{
		PathLens:       []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50},
		MarksPerPacket: 3,
		Traffics:       []int{200, 400, 600, 800},
		Runs:           100,
		Seed:           2,
	}
}

// Fig67Result carries both figures' data from one sweep: each run of the
// largest traffic budget is evaluated at every checkpoint, exactly as if
// the smaller budgets had been run separately with the same seed.
type Fig67Result struct {
	// Failures has one series per traffic budget: number of failed runs
	// (out of Runs) vs path length — Figure 6.
	Failures []stats.Series
	// AvgPackets is the mean number of packets needed to unequivocally
	// identify the source, over runs that succeeded within the largest
	// budget, vs path length — Figure 7.
	AvgPackets stats.Series
}

// Fig67 runs the identification experiment.
func Fig67(cfg Fig67Config) (Fig67Result, error) {
	maxTraffic := 0
	for _, tr := range cfg.Traffics {
		if tr > maxTraffic {
			maxTraffic = tr
		}
	}
	res := Fig67Result{AvgPackets: stats.Series{Name: "avg packets to identify"}}
	res.Failures = make([]stats.Series, len(cfg.Traffics))
	for i, tr := range cfg.Traffics {
		res.Failures[i] = stats.Series{Name: fmt.Sprintf("%d packets", tr)}
	}
	for _, n := range cfg.PathLens {
		p := analytic.ProbabilityForMarks(n, cfg.MarksPerPacket)
		perRun, err := catchSweep(cfg.Runs, maxTraffic, cfg.Traffics, func(run int) sim.ChainConfig {
			return sim.ChainConfig{
				Forwarders: n,
				Scheme:     marking.PNM{P: p},
				Attack:     sim.AttackNone,
				Seed:       cfg.Seed + int64(run)*104729 + int64(n),
			}
		}, identifiesSource)
		if err != nil {
			return Fig67Result{}, err
		}
		for ti := range cfg.Traffics {
			failures := 0
			for _, run := range perRun {
				if !run.okAt[ti] {
					failures++
				}
			}
			res.Failures[ti].Add(float64(n), float64(failures))
		}
		avg, _ := meanCatch(perRun)
		res.AvgPackets.Add(float64(n), avg)
	}
	return res, nil
}

// MatrixCell is one (scheme, attack) outcome in the security matrix.
type MatrixCell struct {
	// Scheme and Attack identify the cell.
	Scheme string
	Attack sim.AttackKind
	// Secure reports whether the verdict localized a mole within one hop.
	Secure bool
	// SelfDefeating marks runs in which the attack dropped every packet —
	// the out-of-scope case where injection achieves nothing.
	SelfDefeating bool
	// Stop is the verdict's stop node (0 when none).
	Stop string
}

// MatrixConfig parameterizes the security matrix.
type MatrixConfig struct {
	// Forwarders is the path length n.
	Forwarders int
	// MarksPerPacket is np for the probabilistic schemes.
	MarksPerPacket float64
	// Packets is the traffic budget per cell.
	Packets int
	// Seed drives the runs.
	Seed int64
}

// DefaultMatrix returns a configuration matching the paper's qualitative
// analysis (§3, §5).
func DefaultMatrix() MatrixConfig {
	return MatrixConfig{Forwarders: 10, MarksPerPacket: 3, Packets: 600, Seed: 3}
}

// SecurityMatrix evaluates every scheme under every attack. Cells are
// independent scenarios (each gets its own runner and the same seed), so
// they fan out across GOMAXPROCS workers with the cell order — and
// therefore the rendered matrix — unchanged.
func SecurityMatrix(cfg MatrixConfig) ([]MatrixCell, error) {
	p := analytic.ProbabilityForMarks(cfg.Forwarders, cfg.MarksPerPacket)
	schemes := []marking.Scheme{
		marking.PPM{P: p},
		marking.AMS{P: p},
		marking.NaiveProbNested{P: p},
		marking.Nested{},
		marking.PNM{P: p},
	}
	attacks := sim.Attacks()
	return parallel.RunN(len(schemes)*len(attacks), func(i int) (MatrixCell, error) {
		s, attack := schemes[i/len(attacks)], attacks[i%len(attacks)]
		r, err := sim.NewChainRunner(sim.ChainConfig{
			Forwarders: cfg.Forwarders,
			Scheme:     s,
			Attack:     attack,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return MatrixCell{}, err
		}
		delivered := r.Run(cfg.Packets)
		cell := MatrixCell{
			Scheme:        s.Name(),
			Attack:        attack,
			Secure:        r.SecurityHolds(),
			SelfDefeating: delivered == 0,
		}
		if v := r.Tracker().Verdict(); v.HasStop {
			cell.Stop = v.Stop.String()
		}
		return cell, nil
	})
}

// RenderMatrix formats the matrix as a table: one row per scheme, one
// column per attack. "ok" means one-hop precision held, "MISLED" that the
// verdict pointed away from every mole, "hidden" that no verdict formed,
// and "n/a" that the attack dropped all traffic (self-defeating).
func RenderMatrix(cells []MatrixCell) string {
	attacks := sim.Attacks()
	byScheme := make(map[string]map[sim.AttackKind]MatrixCell)
	var order []string
	for _, c := range cells {
		if byScheme[c.Scheme] == nil {
			byScheme[c.Scheme] = make(map[sim.AttackKind]MatrixCell)
			order = append(order, c.Scheme)
		}
		byScheme[c.Scheme][c.Attack] = c
	}
	var tb stats.Table
	header := []string{"scheme"}
	for _, a := range attacks {
		header = append(header, string(a))
	}
	tb.AddRow(header...)
	for _, s := range order {
		row := []string{s}
		for _, a := range attacks {
			c := byScheme[s][a]
			switch {
			case c.SelfDefeating:
				row = append(row, "n/a")
			case c.Secure:
				row = append(row, "ok")
			case c.Stop == "":
				row = append(row, "hidden")
			default:
				row = append(row, "MISLED:"+c.Stop)
			}
		}
		tb.AddRow(row...)
	}
	return tb.String()
}
