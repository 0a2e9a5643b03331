package experiment

import (
	"fmt"
	"time"

	"pnm/internal/analytic"
	"pnm/internal/energy"
	"pnm/internal/marking"
	"pnm/internal/packet"
	"pnm/internal/parallel"
	"pnm/internal/sim"
	"pnm/internal/stats"
)

// catchRun is one run's outcome in a packets-to-catch sweep.
type catchRun struct {
	// okAt is the predicate's value right after each checkpoint's packet.
	okAt []bool
	// needed is one past the last packet after which the predicate was
	// false: the packets the sink needed for a verdict that stayed good
	// through the end of the budget.
	needed float64
	// caught reports that the predicate held after the budget's last
	// packet, i.e. the run caught the mole within budget.
	caught bool
}

// catchSweep is the one packets-to-catch definition behind Figures 6–7,
// the headline claims, the np ablation and the colluder-position sweep.
// Each of runs independent runs builds the chain scenario(run), steps it
// maxPackets times and evaluates good after every packet; a packet after
// which good is false resets the catch. checkpoints are 1-based packet
// counts at which good is also recorded in okAt. Runs fan out across
// GOMAXPROCS workers; each derives everything from its run index, so the
// results are identical for every worker count.
func catchSweep(runs, maxPackets int, checkpoints []int, scenario func(run int) sim.ChainConfig, good func(*sim.Runner) bool) ([]catchRun, error) {
	return parallel.RunN(runs, func(run int) (catchRun, error) {
		r, err := sim.NewChainRunner(scenario(run))
		if err != nil {
			return catchRun{}, err
		}
		res := catchRun{okAt: make([]bool, len(checkpoints))}
		lastBad := -1
		for i := 0; i < maxPackets; i++ {
			r.Step()
			ok := good(r)
			if !ok {
				lastBad = i
			}
			for ci, c := range checkpoints {
				if i == c-1 {
					res.okAt[ci] = ok
				}
			}
		}
		res.needed = float64(lastBad + 2)
		res.caught = lastBad < maxPackets-1
		return res, nil
	})
}

// meanCatch returns the mean packets-to-catch over the caught runs and the
// fraction of runs caught.
func meanCatch(runs []catchRun) (avg, caught float64) {
	var needed []float64
	for _, res := range runs {
		if res.caught {
			needed = append(needed, res.needed)
		}
	}
	return stats.Mean(needed), float64(len(needed)) / float64(len(runs))
}

// identifiesSource is the clean-run predicate: the verdict unequivocally
// names V1, the forwarder adjacent to the source mole.
func identifiesSource(r *sim.Runner) bool {
	v := r.Tracker().Verdict()
	return v.Identified && v.Stop == r.ExpectedStop()
}

// HeadlineConfig parameterizes the headline-claims experiment (§1/§6/§9):
// "within about 50 packets, a mole up to 20 hops away is caught" and
// "about 10 seconds to locate a mole 40 hops away, using 300 packets".
type HeadlineConfig struct {
	// PathLens are the hop counts to check (paper: 20 and 40).
	PathLens []int
	// MarksPerPacket is np (paper: 3).
	MarksPerPacket float64
	// Runs is the number of runs averaged per path length.
	Runs int
	// MaxPackets bounds each run.
	MaxPackets int
	// Seed drives the runs.
	Seed int64
}

// DefaultHeadline returns the paper's checkpoints.
func DefaultHeadline() HeadlineConfig {
	return HeadlineConfig{
		PathLens:       []int{10, 20, 30, 40},
		MarksPerPacket: 3,
		Runs:           100,
		MaxPackets:     800,
		Seed:           4,
	}
}

// HeadlineRow is one path length's outcome.
type HeadlineRow struct {
	// PathLen is the hop count from the mole to the sink.
	PathLen int
	// AvgPackets is the mean packets until unequivocal identification.
	AvgPackets float64
	// Identified is the fraction of runs identifying within MaxPackets.
	Identified float64
	// Latency converts AvgPackets to wall-clock at the Mica2 radio rate
	// using the average PNM packet size for this path length.
	Latency time.Duration
	// PayloadBytes is the average wire size used for the latency estimate.
	PayloadBytes int
}

// Headline measures packets-to-catch and converts to seconds at Mica2
// rates.
func Headline(cfg HeadlineConfig) ([]HeadlineRow, error) {
	model := energy.Mica2()
	var rows []HeadlineRow
	for _, n := range cfg.PathLens {
		p := analytic.ProbabilityForMarks(n, cfg.MarksPerPacket)
		perRun, err := catchSweep(cfg.Runs, cfg.MaxPackets, nil, func(run int) sim.ChainConfig {
			return sim.ChainConfig{
				Forwarders: n,
				Scheme:     marking.PNM{P: p},
				Attack:     sim.AttackNone,
				Seed:       cfg.Seed + int64(run)*6151 + int64(n),
			}
		}, identifiesSource)
		if err != nil {
			return nil, err
		}
		avg, identified := meanCatch(perRun)
		payload := avgPNMWireSize(n, cfg.MarksPerPacket)
		rows = append(rows, HeadlineRow{
			PathLen:      n,
			AvgPackets:   avg,
			Identified:   identified,
			Latency:      model.TracebackLatency(int(avg+0.5), payload),
			PayloadBytes: payload,
		})
	}
	return rows, nil
}

// avgPNMWireSize estimates the mean on-air report size for an n-hop path:
// the fixed report plus np anonymous marks.
func avgPNMWireSize(n int, marksPerPacket float64) int {
	mark := packet.Mark{Anonymous: true}
	return packet.ReportLen + int(marksPerPacket*float64(mark.EncodedLen())+0.5)
}

// RenderHeadline formats the headline rows.
func RenderHeadline(rows []HeadlineRow) string {
	var tb stats.Table
	tb.AddRow("hops", "avg packets to catch", "identified", "latency @19.2kbps", "avg packet bytes")
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprintf("%d", r.PathLen),
			fmt.Sprintf("%.1f", r.AvgPackets),
			fmt.Sprintf("%.0f%%", 100*r.Identified),
			r.Latency.Round(10*time.Millisecond).String(),
			fmt.Sprintf("%d", r.PayloadBytes),
		)
	}
	return tb.String()
}

// AblationConfig parameterizes the marking-probability sweep (E10): the
// overhead/detection-speed trade-off of §4.2, plus the anonymity and
// nesting ablations.
type AblationConfig struct {
	// Forwarders is the path length n.
	Forwarders int
	// MarksPerPacketValues are the np values swept.
	MarksPerPacketValues []float64
	// Runs per setting.
	Runs int
	// MaxPackets bounds each run.
	MaxPackets int
	// Seed drives the runs.
	Seed int64
}

// DefaultAblation returns a 20-hop sweep of np in 1..6.
func DefaultAblation() AblationConfig {
	return AblationConfig{
		Forwarders:           20,
		MarksPerPacketValues: []float64{1, 2, 3, 4, 5, 6},
		Runs:                 60,
		MaxPackets:           1500,
		Seed:                 5,
	}
}

// AblationRow is one np setting's outcome.
type AblationRow struct {
	// MarksPerPacket is np.
	MarksPerPacket float64
	// AvgPackets is the mean packets to unequivocal identification.
	AvgPackets float64
	// Identified is the fraction of runs identifying within MaxPackets.
	Identified float64
	// AvgBytes is the mean per-packet wire size (the overhead knob).
	AvgBytes float64
}

// AblateMarkingProbability sweeps np and measures the trade-off between
// per-packet overhead and packets-to-identify.
func AblateMarkingProbability(cfg AblationConfig) ([]AblationRow, error) {
	var rows []AblationRow
	for _, mpp := range cfg.MarksPerPacketValues {
		p := analytic.ProbabilityForMarks(cfg.Forwarders, mpp)
		perRun, err := catchSweep(cfg.Runs, cfg.MaxPackets, nil, func(run int) sim.ChainConfig {
			return sim.ChainConfig{
				Forwarders: cfg.Forwarders,
				Scheme:     marking.PNM{P: p},
				Attack:     sim.AttackNone,
				Seed:       cfg.Seed + int64(run)*31 + int64(mpp*1000),
			}
		}, identifiesSource)
		if err != nil {
			return nil, err
		}
		avg, identified := meanCatch(perRun)
		rows = append(rows, AblationRow{
			MarksPerPacket: mpp,
			AvgPackets:     avg,
			Identified:     identified,
			AvgBytes:       float64(avgPNMWireSize(cfg.Forwarders, mpp)),
		})
	}
	return rows, nil
}

// RenderAblation formats the ablation rows.
func RenderAblation(rows []AblationRow) string {
	var tb stats.Table
	tb.AddRow("marks/packet", "avg packets to catch", "identified", "avg packet bytes")
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprintf("%.0f", r.MarksPerPacket),
			fmt.Sprintf("%.1f", r.AvgPackets),
			fmt.Sprintf("%.0f%%", 100*r.Identified),
			fmt.Sprintf("%.0f", r.AvgBytes),
		)
	}
	return tb.String()
}
