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

// catchRun is one run's outcome in a packets-to-identify sweep: whether
// the run identified the source within budget, and at what packet count.
type catchRun struct {
	identified bool
	needed     float64
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
		perRun, err := parallel.RunN(cfg.Runs, func(run int) (catchRun, error) {
			r, err := sim.NewChainRunner(sim.ChainConfig{
				Forwarders: n,
				Scheme:     marking.PNM{P: p},
				Attack:     sim.AttackNone,
				Seed:       cfg.Seed + int64(run)*6151 + int64(n),
			})
			if err != nil {
				return catchRun{}, err
			}
			target := r.ExpectedStop()
			lastBad := -1
			for i := 0; i < cfg.MaxPackets; i++ {
				r.Step()
				v := r.Tracker().Verdict()
				if !(v.Identified && v.Stop == target) {
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
		identified := 0
		for _, res := range perRun {
			if res.identified {
				identified++
				needed = append(needed, res.needed)
			}
		}
		avg := stats.Mean(needed)
		payload := avgPNMWireSize(n, cfg.MarksPerPacket)
		rows = append(rows, HeadlineRow{
			PathLen:      n,
			AvgPackets:   avg,
			Identified:   float64(identified) / float64(cfg.Runs),
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
		perRun, err := parallel.RunN(cfg.Runs, func(run int) (catchRun, error) {
			r, err := sim.NewChainRunner(sim.ChainConfig{
				Forwarders: cfg.Forwarders,
				Scheme:     marking.PNM{P: p},
				Attack:     sim.AttackNone,
				Seed:       cfg.Seed + int64(run)*31 + int64(mpp*1000),
			})
			if err != nil {
				return catchRun{}, err
			}
			target := r.ExpectedStop()
			lastBad := -1
			for i := 0; i < cfg.MaxPackets; i++ {
				r.Step()
				v := r.Tracker().Verdict()
				if !(v.Identified && v.Stop == target) {
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
		identified := 0
		for _, res := range perRun {
			if res.identified {
				identified++
				needed = append(needed, res.needed)
			}
		}
		rows = append(rows, AblationRow{
			MarksPerPacket: mpp,
			AvgPackets:     stats.Mean(needed),
			Identified:     float64(identified) / float64(cfg.Runs),
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
