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

// DynamicsRow is one routing-dynamics scenario outcome (§7 "Impact of
// Routing Dynamics"): the route changes mid-traceback and the tracker
// keeps accumulating over both routes.
type DynamicsRow struct {
	// Mode names the scenario.
	Mode string
	// Identified is the unequivocal-identification predicate at the end.
	Identified bool
	// MoleLocalized reports whether the final verdict's neighborhood
	// contains the mole.
	MoleLocalized bool
	// Candidates is the final candidate-source count.
	Candidates int
}

// DynamicsConfig parameterizes the rewire experiment.
type DynamicsConfig struct {
	// PacketsPerPhase is the traffic before and after the route change.
	PacketsPerPhase int
	// Runs averaged per mode.
	Runs int
	// Seed drives everything.
	Seed int64
	// Workers bounds the run-level parallelism (<= 0: GOMAXPROCS).
	Workers int
}

// DefaultDynamics returns a 150+150-packet scenario.
func DefaultDynamics() DynamicsConfig {
	return DynamicsConfig{PacketsPerPhase: 150, Runs: 20, Seed: 13}
}

// Dynamics measures traceback across a mid-run route change on a random
// geometric network. Three modes: no change (baseline), a rewire that
// preserves the mole's first hop (the paper's "relative upstream relation
// remains the same"), and a full rewire.
func Dynamics(cfg DynamicsConfig) ([]DynamicsRow, error) {
	modes := []string{"stable", "rewire keeping first hop", "rewire all"}

	// One parallel run covers all three modes on its own topology; the
	// modes stay serial inside the run because they share the base tree.
	type dynMode struct {
		identified, localized bool
		candidates            int
	}
	perRun, err := parallel.RunNErr(cfg.Runs, cfg.Workers, func(run int) ([]dynMode, error) {
		base, err := topology.NewRandomGeometric(topology.GeometricConfig{
			Nodes: 120, Side: 7, RadioRange: 1.5, Seed: cfg.Seed + int64(run), SinkAtCorner: true,
		})
		if err != nil {
			return nil, err
		}
		moleID := base.DeepestNode()
		hops := base.Depth(moleID) - 1
		if hops < 3 {
			return nil, nil // degenerate placement: run contributes nothing
		}
		scheme := marking.PNM{P: analytic.ProbabilityForMarks(hops, 3)}
		out := make([]dynMode, len(modes))
		for mi, mode := range modes {
			keys := mac.NewKeyStore([]byte(fmt.Sprintf("dyn-%d-%s", run, mode)))
			env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{moleID: keys.Key(moleID)}}
			src := &mole.Source{ID: moleID, Base: packet.Report{Event: 0xD1}, Behavior: mole.MarkNever}
			netA := &sim.Net{Topo: base, Keys: keys, Scheme: scheme,
				Moles: map[packet.NodeID]*mole.Forwarder{}, Env: env}
			tracker, err := netA.NewTracker(false)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(run)*31 + int64(mi)))

			deliver := func(net *sim.Net, packets int) {
				for i := 0; i < packets; i++ {
					msg := src.Next(env, rng)
					if out, ok := net.Deliver(moleID, msg, rng); ok {
						tracker.Observe(out, 0)
					}
				}
			}
			deliver(netA, cfg.PacketsPerPhase)

			// Phase 2: possibly a different routing tree.
			topoB := base
			switch mode {
			case "rewire keeping first hop":
				topoB = base.Rewire(cfg.Seed+int64(run)*7+1, moleID)
			case "rewire all":
				topoB = base.Rewire(cfg.Seed + int64(run)*7 + 2)
			}
			netB := &sim.Net{Topo: topoB, Keys: keys, Scheme: scheme,
				Moles: map[packet.NodeID]*mole.Forwarder{}, Env: env}
			deliver(netB, cfg.PacketsPerPhase)

			v := tracker.Verdict()
			// Localization is judged against the radio graph, which both
			// trees share.
			out[mi] = dynMode{
				identified: v.Identified,
				localized:  v.HasStop && v.SuspectsContain(moleID),
				candidates: len(tracker.Candidates()),
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	results := make([]struct {
		identified, localized, candidates int
	}, len(modes))
	for _, res := range perRun {
		for mi, m := range res {
			if m.identified {
				results[mi].identified++
			}
			if m.localized {
				results[mi].localized++
			}
			results[mi].candidates += m.candidates
		}
	}

	rows := make([]DynamicsRow, len(modes))
	for i, mode := range modes {
		rows[i] = DynamicsRow{
			Mode:          mode,
			Identified:    results[i].identified >= cfg.Runs*3/4,
			MoleLocalized: results[i].localized >= cfg.Runs*3/4,
			Candidates:    (results[i].candidates + cfg.Runs/2) / cfg.Runs,
		}
	}
	return rows, nil
}

// RenderDynamics formats the rows.
func RenderDynamics(rows []DynamicsRow) string {
	var tb stats.Table
	tb.AddRow("mode", "identified (>=75% runs)", "mole localized (>=75% runs)", "avg candidates")
	for _, r := range rows {
		tb.AddRow(
			r.Mode,
			fmt.Sprintf("%v", r.Identified),
			fmt.Sprintf("%v", r.MoleLocalized),
			fmt.Sprintf("%d", r.Candidates),
		)
	}
	return tb.String()
}
