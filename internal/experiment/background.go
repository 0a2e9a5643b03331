package experiment

import (
	"fmt"
	"math/rand"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/parallel"
	"pnm/internal/sim"
	"pnm/internal/stats"
	"pnm/internal/suspect"
	"pnm/internal/topology"
)

// BackgroundRow is one triage mode's outcome in the mixed-traffic
// experiment (§7 "Background Traffic"): legitimate reports co-exist with
// the attack, and the sink must pick which packets feed the traceback.
type BackgroundRow struct {
	// Mode is "all traffic" or "triaged".
	Mode string
	// Identified reports the unequivocal-identification predicate.
	Identified bool
	// MoleLocalized reports whether the verdict's neighborhood holds the
	// mole.
	MoleLocalized bool
	// Candidates is the final candidate-source count (order minimals).
	Candidates int
	// TrackedPackets is how many packets fed the order matrix.
	TrackedPackets int
}

// BackgroundConfig parameterizes the experiment.
type BackgroundConfig struct {
	// LegitSensors is the number of background report streams.
	LegitSensors int
	// LegitPerRound / MolePerRound set the traffic mix per round.
	LegitPerRound, MolePerRound int
	// Rounds is the experiment length.
	Rounds int
	// Seed drives everything.
	Seed int64
}

// DefaultBackground returns a mixed-traffic scenario: six background
// sensors at one report per round against a mole flooding ten.
func DefaultBackground() BackgroundConfig {
	return BackgroundConfig{
		LegitSensors:  6,
		LegitPerRound: 1,
		MolePerRound:  10,
		Rounds:        60,
		Seed:          12,
	}
}

// BackgroundTraffic runs the same mixed workload twice: once feeding every
// received packet to the traceback, once feeding only the streams the
// volume classifier flags. Mixing legitimate streams into the order matrix
// plants one candidate source per stream, so triage is what makes
// identification unequivocal.
//
// The two modes are independent replays of the identical seeded workload
// (all randomness comes from cfg.Seed, and nothing on the observation side
// consumes the RNG), so each mode builds its own network, tracker and
// classifier and the pair fans out across GOMAXPROCS workers with
// byte-identical results to the single shared pass.
func BackgroundTraffic(cfg BackgroundConfig) ([]BackgroundRow, error) {
	modes := []string{"all traffic", "triaged"}
	return parallel.RunN(len(modes), func(mi int) (BackgroundRow, error) {
		return backgroundMode(cfg, modes[mi], mi == 1)
	})
}

// backgroundMode replays the mixed workload once, feeding the tracker
// either every delivered packet or only the triaged streams.
func backgroundMode(cfg BackgroundConfig, mode string, triage bool) (BackgroundRow, error) {
	topo, err := topology.NewGrid(topology.GridConfig{Width: 8, Height: 8, Spacing: 1, RadioRange: 1.1})
	if err != nil {
		return BackgroundRow{}, err
	}
	keys := mac.NewKeyStore([]byte("background"))
	scheme := marking.PNM{P: 0.35}

	// Pick the mole (deepest node) and spread legitimate sensors.
	moleID := topo.DeepestNode()
	var sensors []packet.NodeID
	for _, id := range topo.Nodes() {
		if id != moleID && topo.Depth(id) >= 3 && len(sensors) < cfg.LegitSensors {
			sensors = append(sensors, id)
		}
	}
	net := &sim.Net{
		Topo:   topo,
		Keys:   keys,
		Scheme: scheme,
		Moles:  map[packet.NodeID]*mole.Forwarder{},
		Env:    &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{moleID: keys.Key(moleID)}},
	}
	srcMole := &mole.Source{ID: moleID, Base: packet.Report{Event: 0xBAD, Location: uint32(moleID)}, Behavior: mole.MarkNever}

	tracker, err := net.NewTracker()
	if err != nil {
		return BackgroundRow{}, err
	}
	classifier := suspect.NewClassifier(200)
	rng := rand.New(rand.NewSource(cfg.Seed))
	tracked := 0
	var seq uint32
	for round := 0; round < cfg.Rounds; round++ {
		var batch []struct {
			src packet.NodeID
			msg packet.Message
		}
		for _, s := range sensors {
			for i := 0; i < cfg.LegitPerRound; i++ {
				seq++
				rep := packet.Report{Event: 0x600D, Location: uint32(s), Timestamp: uint64(round), Seq: seq}
				// Legitimate senders mark their own reports too.
				msg := scheme.Mark(s, keys.Key(s), packet.Message{Report: rep}, rng)
				batch = append(batch, struct {
					src packet.NodeID
					msg packet.Message
				}{s, msg})
			}
		}
		for i := 0; i < cfg.MolePerRound; i++ {
			batch = append(batch, struct {
				src packet.NodeID
				msg packet.Message
			}{moleID, srcMole.Next(net.Env, rng)})
		}
		for _, b := range batch {
			out, ok := net.Deliver(b.src, b.msg, rng)
			if !ok {
				continue
			}
			classifier.Observe(out.Report)
			if triage && !classifier.Suspicious(out.Report.Location) {
				continue
			}
			tracker.Observe(out, 0)
			tracked++
		}
	}

	v := tracker.Verdict()
	return BackgroundRow{
		Mode:           mode,
		Identified:     v.Identified,
		MoleLocalized:  v.HasStop && v.SuspectsContain(moleID),
		Candidates:     len(tracker.Candidates()),
		TrackedPackets: tracked,
	}, nil
}

// RenderBackground formats the comparison.
func RenderBackground(rows []BackgroundRow) string {
	var tb stats.Table
	tb.AddRow("mode", "tracked packets", "candidate sources", "identified", "mole localized")
	for _, r := range rows {
		tb.AddRow(
			r.Mode,
			fmt.Sprintf("%d", r.TrackedPackets),
			fmt.Sprintf("%d", r.Candidates),
			fmt.Sprintf("%v", r.Identified),
			fmt.Sprintf("%v", r.MoleLocalized),
		)
	}
	return tb.String()
}
