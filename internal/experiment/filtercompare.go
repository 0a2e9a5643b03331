package experiment

import (
	"fmt"

	"pnm/internal/energy"
	"pnm/internal/filter"
	"pnm/internal/stats"
)

// FilterCompareConfig parameterizes the complementary-defense comparison
// (E11): statistical en-route filtering alone versus filtering plus PNM
// traceback and isolation.
type FilterCompareConfig struct {
	// PathLen is the hop count from the mole to the sink.
	PathLen int
	// DetectProbs are the per-hop filtering probabilities swept.
	DetectProbs []float64
	// SinkPacketsToCatch is how many bogus packets the sink must receive
	// for PNM to identify the source (measure it with Headline; the paper
	// and E4 put it around 55 for 20 hops).
	SinkPacketsToCatch float64
	// InjectionRatePPS is the mole's injection rate in packets/second.
	InjectionRatePPS float64
	// PayloadBytes sizes the bogus reports on the air.
	PayloadBytes int
	// AttackHours is the exposure window for the filtering-only defense.
	AttackHours float64
}

// DefaultFilterCompare returns a 20-hop scenario at Mica2 rates.
func DefaultFilterCompare() FilterCompareConfig {
	return FilterCompareConfig{
		PathLen:            20,
		DetectProbs:        []float64{0, 0.05, 0.1, 0.2, 0.3},
		SinkPacketsToCatch: 55,
		InjectionRatePPS:   10,
		PayloadBytes:       36,
		AttackHours:        1,
	}
}

// FilterCompareRow is one detection-probability setting.
type FilterCompareRow struct {
	// Q is the per-hop detection probability.
	Q float64
	// ExpHops is the expected hops a bogus report travels before being
	// filtered (or reaching the sink).
	ExpHops float64
	// DeliveryProb is the fraction of bogus reports reaching the sink —
	// the traffic PNM can learn from.
	DeliveryProb float64
	// InjectedToCatch is how many packets the mole must inject before the
	// sink has received SinkPacketsToCatch of them.
	InjectedToCatch float64
	// SecondsToCatch converts InjectedToCatch to time at the injection
	// rate.
	SecondsToCatch float64
	// EnergyUntilCaughtJ is the network energy the attack wastes before
	// PNM localizes the mole (after which isolation stops the drain).
	EnergyUntilCaughtJ float64
	// EnergyFilterOnlyJ is the energy wasted over the exposure window
	// when only filtering is deployed (the mole is never located and
	// keeps injecting).
	EnergyFilterOnlyJ float64
}

// FilterCompare computes the table. It is analytic end to end: expected
// travel and delivery come from the filter model, energy from the Mica2
// model, and packets-to-catch from the measured SinkPacketsToCatch. Each
// row is a closed-form function of one detection probability.
func FilterCompare(cfg FilterCompareConfig) []FilterCompareRow {
	model := energy.Mica2()
	injectedWindow := cfg.AttackHours * 3600 * cfg.InjectionRatePPS
	rows := make([]FilterCompareRow, 0, len(cfg.DetectProbs))
	for _, q := range cfg.DetectProbs {
		expHops := filter.ExpectedTravel(cfg.PathLen, q)
		delivery := filter.SinkDeliveryProb(cfg.PathLen, q)
		perPacketJ := model.AttackEnergy(1, cfg.PayloadBytes, int(expHops+0.5))

		row := FilterCompareRow{
			Q:            q,
			ExpHops:      expHops,
			DeliveryProb: delivery,
		}
		if delivery > 0 {
			row.InjectedToCatch = cfg.SinkPacketsToCatch / delivery
			row.SecondsToCatch = row.InjectedToCatch / cfg.InjectionRatePPS
			row.EnergyUntilCaughtJ = row.InjectedToCatch * perPacketJ
		}
		row.EnergyFilterOnlyJ = injectedWindow * perPacketJ
		rows = append(rows, row)
	}
	return rows
}

// RenderFilterCompare formats the table.
func RenderFilterCompare(rows []FilterCompareRow, attackHours float64) string {
	var tb stats.Table
	tb.AddRow("q", "E[hops]", "delivery", "injected to catch", "time to catch",
		"energy until caught", fmt.Sprintf("filtering-only (%gh)", attackHours))
	for _, r := range rows {
		caught := "never"
		energyCaught := "unbounded"
		injected := "-"
		if r.DeliveryProb > 0 {
			caught = fmt.Sprintf("%.0fs", r.SecondsToCatch)
			energyCaught = fmt.Sprintf("%.2fJ", r.EnergyUntilCaughtJ)
			injected = fmt.Sprintf("%.0f", r.InjectedToCatch)
		}
		tb.AddRow(
			fmt.Sprintf("%.2f", r.Q),
			fmt.Sprintf("%.1f", r.ExpHops),
			fmt.Sprintf("%.4f", r.DeliveryProb),
			injected,
			caught,
			energyCaught,
			fmt.Sprintf("%.1fJ", r.EnergyFilterOnlyJ),
		)
	}
	return tb.String()
}
