package experiment

// ChurnBench (E23, committed as BENCH_churn.json): traceback under
// topology churn with epoch-versioned resolution. Each row runs the same
// seeded mole traffic over the same geometric field while the routing
// tree is rewired a sweep-controlled number of times; packets are marked
// under — and the sink resolves them against — the epoch current at their
// arrival. Three claims are measured and enforced at generation time:
//
//  1. Correctness: the epoch-aware sink keeps catching the mole at every
//     churn level (rows error out otherwise), while a resolver pinned to
//     the start-up tree diverges on a counted, strictly positive number
//     of post-churn packets (the stale_divergence column — the bug the
//     epoch threading fixes).
//  2. Incrementality: the epoch-aware tracker folds each chain exactly
//     once, so its reconstruction work (chains_folded) is independent of
//     the churn level — sublinear in topology changes. The pre-fix cost
//     model, rebuilding the tracker at every topology change and
//     replaying the chain log (rebuild_chains_replayed), grows with the
//     product of churn and traffic instead.
//  3. Equivalence: the full-rebuild reference reaches a verdict with the
//     same hash as the incremental tracker — replaying the log against
//     the same epochs is just a slower spelling of the same state.

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"pnm/internal/analytic"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// ChurnBenchConfig parameterizes the churn benchmark.
type ChurnBenchConfig struct {
	// Nodes, Side, RadioRange shape the random geometric field (the sink
	// is additional, at the corner).
	Nodes      int     `json:"nodes"`
	Side       float64 `json:"side"`
	RadioRange float64 `json:"radio_range"`
	// Seed drives placement, traffic, marking and every rewire.
	Seed int64 `json:"seed"`
	// Batch is the injection batch size; verdict checks and epoch
	// advances land only on batch boundaries.
	Batch int `json:"batch"`
	// MaxPackets bounds each row's injected traffic.
	MaxPackets int `json:"max_packets"`
	// ChurnSweep lists the epoch counts to run: each entry is how many
	// times the routing tree is rewired, spread evenly across the run.
	// 0 is the static baseline.
	ChurnSweep []int `json:"churn_sweep"`
}

// DefaultChurnBench is the committed configuration.
func DefaultChurnBench() ChurnBenchConfig {
	return ChurnBenchConfig{
		Nodes: 120, Side: 7, RadioRange: 1.5,
		Seed:  31,
		Batch: 25, MaxPackets: 1200,
		ChurnSweep: []int{0, 2, 8, 32},
	}
}

// ChurnBenchRow is one churn level's outcome.
type ChurnBenchRow struct {
	// Epochs is how many rewires the row applied (ChurnSweep entry).
	Epochs int `json:"epochs"`
	// PacketsToCatch is the injected count at the first batch boundary
	// where the verdict localizes the mole (HasStop with the mole inside
	// the suspect neighborhood).
	PacketsToCatch int `json:"packets_to_catch"`
	// Injected is the row's total traffic.
	Injected int `json:"injected"`
	// ChainsFolded is the incremental tracker's total reconstruction
	// work: each chain folds exactly once, independent of churn.
	ChainsFolded uint64 `json:"chains_folded"`
	// RebuildChainsReplayed is the pre-fix cost model: the reference
	// tracker is rebuilt at every epoch advance and replays the whole
	// chain log collected so far.
	RebuildChainsReplayed int `json:"rebuild_chains_replayed"`
	// StaleDivergence counts packets whose resolution against the pinned
	// start-up tree differs from the epoch-aware one; StaleStops is how
	// many of those the stale resolver wrongly reported stopped.
	StaleDivergence int `json:"stale_divergence"`
	StaleStops      int `json:"stale_stops"`
	// IncrementalNs and RebuildNs are the wall-clock cost of the
	// incremental observe path vs the reference's rebuild replays.
	IncrementalNs int64 `json:"incremental_ns"`
	RebuildNs     int64 `json:"rebuild_ns"`
	// Stop and Identified summarize the final verdict; VerdictHash is
	// equal between the incremental tracker and the full-rebuild
	// reference by construction (enforced, not just recorded).
	Stop        packet.NodeID `json:"stop"`
	Identified  bool          `json:"identified"`
	VerdictHash string        `json:"verdict_hash"`
	// FinalPrecise reports whether the final verdict's suspects contain
	// the mole: one-hop precision at the end of the run rather than at
	// the first catch. It is recorded, not enforced, until the verdict
	// accounts for relations accumulated across epochs.
	FinalPrecise bool `json:"final_precise"`
}

// ChurnBenchResult is the committed document.
type ChurnBenchResult struct {
	Env    BenchEnv         `json:"env"`
	Config ChurnBenchConfig `json:"config"`
	Mole   packet.NodeID    `json:"mole"`
	Depth  int              `json:"mole_depth"`
	Rows   []ChurnBenchRow  `json:"rows"`
	Note   string           `json:"note"`
}

// ChurnBench runs the sweep. Every row must catch the mole, every churned
// row must exhibit stale divergence, and the full-rebuild reference must
// hash-match the incremental verdict — violations are errors, not rows.
func ChurnBench(cfg ChurnBenchConfig) (*ChurnBenchResult, error) {
	base, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: cfg.Nodes, Side: cfg.Side, RadioRange: cfg.RadioRange,
		Seed: cfg.Seed, SinkAtCorner: true,
	})
	if err != nil {
		return nil, err
	}
	moleID := base.DeepestNode()
	hops := base.Depth(moleID) - 1
	if hops < 3 {
		return nil, fmt.Errorf("churnbench: degenerate placement, mole depth %d", hops+1)
	}
	scheme := marking.PNM{P: analytic.ProbabilityForMarks(hops, 0.8)}

	res := &ChurnBenchResult{
		Env:    CaptureBenchEnv(false),
		Config: cfg, Mole: moleID, Depth: base.Depth(moleID),
		Note: "epoch advances at settled batch boundaries; rewires preserve hop distances; verdict-hash equality between the incremental tracker and a full-rebuild reference is enforced at generation time",
	}
	for _, epochs := range cfg.ChurnSweep {
		row, err := runChurnPoint(cfg, base, moleID, scheme, epochs)
		if err != nil {
			return nil, fmt.Errorf("churnbench: epochs=%d: %w", epochs, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runChurnPoint drives one churn level. Rewire preserves node depths, so
// every epoch's mole path has the same length — the marking RNG draws an
// identical stream at every churn level and the rows differ only in
// routing, never in traffic.
func runChurnPoint(cfg ChurnBenchConfig, base *topology.Network, moleID packet.NodeID, scheme marking.Scheme, epochs int) (ChurnBenchRow, error) {
	keys := mac.NewKeyStore([]byte(fmt.Sprintf("churnbench-%d", cfg.Seed)))
	set := topology.NewEpochSet(base)
	nets := []*topology.Network{base}
	factory := func() (sink.Verifier, error) {
		return sink.NewVerifier(scheme, keys, base.NumNodes(), sink.NewTopologyResolverEpochs(keys, set))
	}
	newTracker := func(reg *obs.Registry) (*sink.Tracker, error) {
		v, err := factory()
		if err != nil {
			return nil, err
		}
		t := sink.NewTracker(v, base)
		if reg != nil {
			t.Instrument(reg)
		}
		return t, nil
	}

	reg := obs.New()
	tracker, err := newTracker(reg) // the epoch-aware incremental sink
	if err != nil {
		return ChurnBenchRow{}, err
	}
	stale, err := newTracker(nil) // pinned to epoch 0: the pre-fix resolver
	if err != nil {
		return ChurnBenchRow{}, err
	}
	rebuild, err := newTracker(nil) // rebuilt-and-replayed reference
	if err != nil {
		return ChurnBenchRow{}, err
	}

	// boundary(i) is the injected count at which advance i (1-based)
	// becomes due; the epochs are spread evenly across the run.
	boundary := func(i int) int { return cfg.MaxPackets * i / (epochs + 1) }

	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{moleID: keys.Key(moleID)}}
	src := &mole.Source{ID: moleID, Base: packet.Report{Event: 0xC4}, Behavior: mole.MarkNever}
	rng := rand.New(rand.NewSource(cfg.Seed * 977))

	row := ChurnBenchRow{Epochs: epochs}
	type logEntry struct {
		msg packet.Message
		at  topology.EpochVersion
	}
	var chainLog []logEntry
	cur := topology.EpochVersion(0)
	for injected := 0; injected < cfg.MaxPackets; {
		for end := injected + cfg.Batch; injected < end && injected < cfg.MaxPackets; injected++ {
			msg := src.Next(env, rng)
			for _, hop := range nets[cur].Forwarders(moleID) {
				msg = scheme.Mark(hop, keys.Key(hop), msg, rng)
			}
			//pnmlint:allow wallclock macro-benchmark reports real observe latency
			t0 := time.Now()
			res := tracker.Observe(msg, cur)
			//pnmlint:allow wallclock macro-benchmark reports real observe latency
			row.IncrementalNs += time.Since(t0).Nanoseconds()
			sres := stale.Observe(msg, 0)
			if res.Stopped != sres.Stopped || !reflect.DeepEqual(res.Chain, sres.Chain) {
				row.StaleDivergence++
				if sres.Stopped {
					row.StaleStops++
				}
			}
			rebuild.Observe(msg, cur)
			chainLog = append(chainLog, logEntry{msg: msg, at: cur})
		}
		if row.PacketsToCatch == 0 {
			if v := tracker.Verdict(); v.HasStop && v.SuspectsContain(moleID) {
				row.PacketsToCatch = injected
			}
		}
		for int(cur) < epochs && injected >= boundary(int(cur)+1) {
			next := nets[cur].Rewire(cfg.Seed + int64(cur+1)*131)
			set.Advance(next)
			nets = append(nets, next)
			cur++
			// The pre-fix world tears its tracker down on every topology
			// change and replays the chain log to recover its state.
			rb, err := newTracker(nil)
			if err != nil {
				return ChurnBenchRow{}, err
			}
			//pnmlint:allow wallclock macro-benchmark reports real rebuild latency
			t0 := time.Now()
			for _, e := range chainLog {
				rb.Observe(e.msg, e.at)
			}
			//pnmlint:allow wallclock macro-benchmark reports real rebuild latency
			row.RebuildNs += time.Since(t0).Nanoseconds()
			row.RebuildChainsReplayed += len(chainLog)
			rebuild = rb
		}
		row.Injected = injected
	}
	if int(cur) != epochs {
		return ChurnBenchRow{}, fmt.Errorf("only %d of %d epochs applied", cur, epochs)
	}
	if row.PacketsToCatch == 0 {
		return ChurnBenchRow{}, fmt.Errorf("mole not localized within %d packets", cfg.MaxPackets)
	}
	if epochs > 0 && row.StaleDivergence == 0 {
		return ChurnBenchRow{}, fmt.Errorf("stale resolution did not diverge under churn — the epoch threading is not being exercised")
	}

	v := tracker.Verdict()
	row.Stop = v.Stop
	row.Identified = v.Identified
	row.VerdictHash = verdictDigest(v)
	row.FinalPrecise = v.SuspectsContain(moleID)
	if got := verdictDigest(rebuild.Verdict()); got != row.VerdictHash {
		return ChurnBenchRow{}, fmt.Errorf("full-rebuild verdict hash %s, incremental %s", got, row.VerdictHash)
	}
	row.ChainsFolded = reg.Counter("sink.tracker.chains_folded").Value()
	return row, nil
}
