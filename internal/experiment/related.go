package experiment

import (
	"fmt"
	"math/rand"

	"pnm/internal/analytic"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/notify"
	"pnm/internal/packet"
	"pnm/internal/parallel"
	"pnm/internal/sim"
	"pnm/internal/spie"
	"pnm/internal/stats"
	"pnm/internal/topology"
)

// RelatedRow compares one traceback approach's costs and outcome under the
// same colluding-mole scenario (§8's qualitative comparison, quantified).
type RelatedRow struct {
	// Approach names the traceback family.
	Approach string
	// PerNodeMemoryBytes is the storage each forwarder must dedicate.
	PerNodeMemoryBytes int
	// ControlMessages is the signaling traffic (queries or notifications).
	ControlMessages int
	// ExtraPacketBytes is the per-data-packet overhead carried in band.
	ExtraPacketBytes int
	// Localized reports whether a mole ended up within one hop of the
	// final estimate.
	Localized bool
	// Note captures the qualitative failure or caveat.
	Note string
}

// RelatedConfig parameterizes the comparison.
type RelatedConfig struct {
	// PathLen is the forwarding path length.
	PathLen int
	// Packets is the attack traffic volume.
	Packets int
	// NotifyProb is the notification scheme's per-hop probability.
	NotifyProb float64
	// Seed drives the runs.
	Seed int64
}

// DefaultRelated returns a 10-hop scenario.
func DefaultRelated() RelatedConfig {
	return RelatedConfig{PathLen: 10, Packets: 200, NotifyProb: 0.3, Seed: 8}
}

// RelatedComparison runs PNM, hash-based logging (SPIE) and probabilistic
// notification under the same source-plus-colluder attack and tabulates
// their costs. The colluder behaves per approach: against PNM it tries
// selective dropping (and fails); against logging it lies to queries;
// against notification it eats upstream notifications. The three
// approaches are fully independent scenarios — each builds its own
// (deterministic) chain — so they fan out across GOMAXPROCS workers with the
// row order unchanged.
func RelatedComparison(cfg RelatedConfig) ([]RelatedRow, error) {
	approaches := []func(RelatedConfig) (RelatedRow, error){
		relatedPNM, relatedLogging, relatedNotification,
	}
	return parallel.RunN(len(approaches), func(i int) (RelatedRow, error) {
		return approaches[i](cfg)
	})
}

// relatedPNM measures PNM under the selective-dropping colluder.
func relatedPNM(cfg RelatedConfig) (RelatedRow, error) {
	p := analytic.ProbabilityForMarks(cfg.PathLen, 3)
	runner, err := sim.NewChainRunner(sim.ChainConfig{
		Forwarders: cfg.PathLen,
		Scheme:     marking.PNM{P: p},
		Attack:     sim.AttackDrop,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return RelatedRow{}, err
	}
	runner.Run(cfg.Packets)
	anonMark := packet.Mark{Anonymous: true}
	return RelatedRow{
		Approach:           "pnm",
		PerNodeMemoryBytes: 0,
		ControlMessages:    0,
		ExtraPacketBytes:   int(3*float64(anonMark.EncodedLen()) + 0.5),
		Localized:          runner.SecurityHolds(),
		Note:               "evidence rides inside the attack traffic",
	}, nil
}

// relatedLogging measures hash-based logging (SPIE) with a lying mole.
func relatedLogging(cfg RelatedConfig) (RelatedRow, error) {
	topo, err := topology.NewChain(cfg.PathLen + 1)
	if err != nil {
		return RelatedRow{}, err
	}
	src := packet.NodeID(cfg.PathLen + 1)
	molePos := packet.NodeID((cfg.PathLen + 1) / 2)
	logSys := spie.NewSystem(topo, cfg.Packets, 0.001)
	logSys.SetLiar(molePos)
	var lastDigest spie.Digest
	for i := 0; i < cfg.Packets; i++ {
		lastDigest = spie.DigestOf(packet.Report{Event: 0xBAD, Seq: uint32(i + 1)})
		logSys.Record(src, lastDigest)
	}
	_, stop := logSys.Trace(lastDigest)
	return RelatedRow{
		Approach:           "logging (SPIE)",
		PerNodeMemoryBytes: logSys.MemoryBytes() / cfg.PathLen,
		ControlMessages:    logSys.Queries(),
		ExtraPacketBytes:   0,
		Localized:          stop == molePos || topo.AreNeighbors(stop, molePos),
		Note:               "per-node storage + query round per traceback; lying mole halts the walk",
	}, nil
}

// relatedNotification measures probabilistic notification with a mole that
// eats upstream notifications.
func relatedNotification(cfg RelatedConfig) (RelatedRow, error) {
	topo, err := topology.NewChain(cfg.PathLen + 1)
	if err != nil {
		return RelatedRow{}, err
	}
	src := packet.NodeID(cfg.PathLen + 1)
	molePos := packet.NodeID((cfg.PathLen + 1) / 2)
	keys := mac.NewKeyStore([]byte("related"))
	ntf := notify.NewSystem(topo, keys, cfg.NotifyProb)
	ntf.DropAtMole = molePos
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Packets; i++ {
		d := spie.DigestOf(packet.Report{Event: 0xBAD, Seq: uint32(i + 1)})
		ntf.Forward(src, d, rng)
	}
	up, ok := ntf.MostUpstream()
	// The mole eats everything upstream of it: the estimate can never see
	// past the mole. It "localizes" only if the estimate happens to land
	// next to the mole — but the sink has no tamper evidence either way.
	return RelatedRow{
		Approach:           "notification (iTrace)",
		PerNodeMemoryBytes: 0,
		ControlMessages:    ntf.Sent(),
		ExtraPacketBytes:   0,
		Localized:          ok && (up == molePos || topo.AreNeighbors(up, molePos)),
		Note:               "control messages travel the infested path; mole silently eats upstream reports",
	}, nil
}

// RenderRelated formats the comparison.
func RenderRelated(rows []RelatedRow) string {
	var tb stats.Table
	tb.AddRow("approach", "per-node memory", "control msgs", "in-band bytes/pkt", "localized", "caveat")
	for _, r := range rows {
		tb.AddRow(
			r.Approach,
			fmt.Sprintf("%dB", r.PerNodeMemoryBytes),
			fmt.Sprintf("%d", r.ControlMessages),
			fmt.Sprintf("%d", r.ExtraPacketBytes),
			fmt.Sprintf("%v", r.Localized),
			r.Note,
		)
	}
	return tb.String()
}
