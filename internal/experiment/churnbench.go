package experiment

// ChurnBench (E23, committed as BENCH_churn.json; it also carries E18):
// traceback under topology churn with epoch-versioned resolution. Each row
// runs the same seeded mole traffic over the same geometric field while
// the routing tree is rewired a sweep-controlled number of times, under
// one of two modes: rewire-all re-picks every node's parent, while
// rewire-keep-first-hop pins the mole's parent (§7: traceback survives
// route changes that keep the relative upstream relation). Packets are
// marked under — and the sink resolves them against — the epoch current
// at their arrival. Every row runs on Runs independently seeded fields:
// run 0 supplies the single-field columns, and the *_runs columns count
// over all of them. Four claims are measured and enforced at generation
// time:
//
//  1. Correctness: on run 0 the epoch-aware sink catches the mole at
//     every churn level (rows error out otherwise), while a resolver
//     pinned to the start-up tree diverges on a counted, strictly
//     positive number of post-churn packets (the stale_divergence column
//     — the bug the epoch threading fixes). Other runs count their
//     catches in caught_runs.
//  2. Incrementality: the epoch-aware tracker folds each chain exactly
//     once, so its reconstruction work (chains_folded) is independent of
//     the churn level — sublinear in topology changes. The pre-fix cost
//     model, rebuilding the tracker at every topology change and
//     replaying the chain log (rebuild_chains_replayed), grows with the
//     product of churn and traffic instead.
//  3. Equivalence: on every run the full-rebuild reference reaches a
//     verdict with the same hash as the incremental tracker — replaying
//     the log against the same epochs is just a slower spelling of the
//     same state.
//  4. Bounded history: every packet's epoch stamp goes back at the end
//     of the row, leaving the set with no pin and no read of a released
//     epoch.

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
	"pnm/internal/parallel"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// The rewire modes. rewire-all re-picks every node's parent;
// rewire-keep-first-hop pins the mole's parent, so its first hop
// survives every route change.
const (
	rewireAll          = "rewire-all"
	rewireKeepFirstHop = "rewire-keep-first-hop"
)

// ChurnBenchConfig parameterizes the churn benchmark.
type ChurnBenchConfig struct {
	// Nodes, Side, RadioRange shape the random geometric field (the sink
	// is additional, at the corner).
	Nodes      int     `json:"nodes"`
	Side       float64 `json:"side"`
	RadioRange float64 `json:"radio_range"`
	// Seed drives run 0's placement, traffic, marking and every rewire;
	// run r uses Seed+r.
	Seed int64 `json:"seed"`
	// Runs is how many independently seeded fields every row runs on.
	Runs int `json:"runs"`
	// Batch is the injection batch size; verdict checks and epoch
	// advances land only on batch boundaries.
	Batch int `json:"batch"`
	// MaxPackets bounds each row's injected traffic.
	MaxPackets int `json:"max_packets"`
	// ChurnSweep lists the epoch counts to run: each entry is how many
	// times the routing tree is rewired, spread evenly across the run.
	// 0 is the static baseline, run once rather than once per mode.
	ChurnSweep []int `json:"churn_sweep"`
}

// DefaultChurnBench is the committed configuration.
func DefaultChurnBench() ChurnBenchConfig {
	return ChurnBenchConfig{
		Nodes: 120, Side: 7, RadioRange: 1.5,
		Seed: 31, Runs: 20,
		Batch: 25, MaxPackets: 1200,
		ChurnSweep: []int{0, 1, 2, 8, 32},
	}
}

// ChurnBenchRow is one mode and churn level's outcome. Every column up to
// FinalPrecise is run 0's; the columns from Runs on count over all runs.
type ChurnBenchRow struct {
	// Mode is the rewire discipline (rewire-all or rewire-keep-first-hop).
	Mode string `json:"mode"`
	// Epochs is how many rewires the row applied (ChurnSweep entry).
	Epochs int `json:"epochs"`
	// PacketsToCatch is the injected count at the first batch boundary
	// where the verdict is precise (the mole inside the suspect
	// neighborhood); 0 if it never was.
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
	// FinalPrecise reports whether the final verdict is precise: one-hop
	// precision at the end of the run rather than at the first catch. It
	// is recorded, not enforced, until the verdict accounts for relations
	// accumulated across epochs.
	FinalPrecise bool `json:"final_precise"`
	// Runs is how many fields the row ran on. CaughtRuns, IdentifiedRuns
	// and PreciseRuns count the runs whose verdict was ever precise,
	// whose final verdict was Identified, and whose final verdict was
	// precise. CandidatesMean is the mean final candidate-source count.
	Runs           int     `json:"runs"`
	CaughtRuns     int     `json:"caught_runs"`
	IdentifiedRuns int     `json:"identified_runs"`
	PreciseRuns    int     `json:"precise_runs"`
	CandidatesMean float64 `json:"candidates_mean"`
}

// ChurnBenchResult is the committed document. Mole and Depth are run 0's.
type ChurnBenchResult struct {
	Env    BenchEnv         `json:"env"`
	Config ChurnBenchConfig `json:"config"`
	Mole   packet.NodeID    `json:"mole"`
	Depth  int              `json:"mole_depth"`
	Rows   []ChurnBenchRow  `json:"rows"`
	Note   string           `json:"note"`
}

// churnPoint is one row's mode and churn level.
type churnPoint struct {
	mode   string
	epochs int
}

// churnPoints lists the rows: every sweep entry under rewire-all, then
// the churned entries under rewire-keep-first-hop.
func churnPoints(sweep []int) []churnPoint {
	var pts []churnPoint
	for _, mode := range []string{rewireAll, rewireKeepFirstHop} {
		for _, epochs := range sweep {
			if epochs > 0 || mode == rewireAll {
				pts = append(pts, churnPoint{mode, epochs})
			}
		}
	}
	return pts
}

// churnField is one run's outcome at every point, in churnPoints order.
type churnField struct {
	mole       packet.NodeID
	depth      int
	rows       []ChurnBenchRow
	candidates []int
}

// ChurnBench runs the sweep on cfg.Runs fields, fanned out through
// parallel.RunN. Run 0 must catch the mole on every row and diverge under
// its stale resolver on every churned row; every run must apply every
// epoch and hash-match its full-rebuild reference — violations are
// errors, not rows.
func ChurnBench(cfg ChurnBenchConfig) (*ChurnBenchResult, error) {
	if cfg.Runs < 1 {
		return nil, fmt.Errorf("churnbench: runs = %d, want at least 1", cfg.Runs)
	}
	points := churnPoints(cfg.ChurnSweep)
	fields, err := parallel.RunN(cfg.Runs, func(run int) (churnField, error) {
		return runChurnField(cfg, cfg.Seed+int64(run), points)
	})
	if err != nil {
		return nil, fmt.Errorf("churnbench: %w", err)
	}

	first := fields[0]
	res := &ChurnBenchResult{
		Env:    CaptureBenchEnv(false),
		Config: cfg, Mole: first.mole, Depth: first.depth,
		Note: "epoch advances at settled batch boundaries; rewires preserve hop distances; verdict-hash equality between the incremental tracker and a full-rebuild reference is enforced at generation time on every run",
	}
	for i, pt := range points {
		row := first.rows[i]
		if row.PacketsToCatch == 0 {
			return nil, fmt.Errorf("churnbench: %s epochs=%d: mole not localized within %d packets", pt.mode, pt.epochs, cfg.MaxPackets)
		}
		if pt.epochs > 0 && row.StaleDivergence == 0 {
			return nil, fmt.Errorf("churnbench: %s epochs=%d: stale resolution did not diverge under churn — the epoch threading is not being exercised", pt.mode, pt.epochs)
		}
		candidates := 0
		for _, f := range fields {
			r := f.rows[i]
			if r.PacketsToCatch > 0 {
				row.CaughtRuns++
			}
			if r.Identified {
				row.IdentifiedRuns++
			}
			if r.FinalPrecise {
				row.PreciseRuns++
			}
			candidates += f.candidates[i]
		}
		row.Runs = len(fields)
		row.CandidatesMean = float64(candidates) / float64(len(fields))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runChurnField runs every point on the field seeded seed.
func runChurnField(cfg ChurnBenchConfig, seed int64, points []churnPoint) (churnField, error) {
	base, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: cfg.Nodes, Side: cfg.Side, RadioRange: cfg.RadioRange,
		Seed: seed, SinkAtCorner: true,
	})
	if err != nil {
		return churnField{}, err
	}
	moleID := base.DeepestNode()
	hops := base.Depth(moleID) - 1
	if hops < 3 {
		return churnField{}, fmt.Errorf("seed %d: degenerate placement, mole depth %d", seed, hops+1)
	}
	scheme := marking.PNM{P: analytic.ProbabilityForMarks(hops, 0.8)}

	f := churnField{mole: moleID, depth: base.Depth(moleID)}
	for _, pt := range points {
		row, candidates, err := runChurnPoint(cfg, seed, base, moleID, scheme, pt)
		if err != nil {
			return churnField{}, fmt.Errorf("seed %d: %s epochs=%d: %w", seed, pt.mode, pt.epochs, err)
		}
		f.rows = append(f.rows, row)
		f.candidates = append(f.candidates, candidates)
	}
	return f, nil
}

// runChurnPoint drives one mode and churn level on one field and returns
// its row and final candidate-source count. Rewire preserves node depths,
// so every epoch's mole path has the same length — the marking RNG draws
// an identical stream at every churn level and the rows differ only in
// routing, never in traffic.
func runChurnPoint(cfg ChurnBenchConfig, seed int64, base *topology.Network, moleID packet.NodeID, scheme marking.Scheme, pt churnPoint) (ChurnBenchRow, int, error) {
	keys := mac.NewKeyStore([]byte(fmt.Sprintf("churnbench-%d", seed)))
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
		return ChurnBenchRow{}, 0, err
	}
	stale, err := newTracker(nil) // pinned to epoch 0: the pre-fix resolver
	if err != nil {
		return ChurnBenchRow{}, 0, err
	}
	rebuild, err := newTracker(nil) // rebuilt-and-replayed reference
	if err != nil {
		return ChurnBenchRow{}, 0, err
	}

	// boundary(i) is the injected count at which advance i (1-based)
	// becomes due; the epochs are spread evenly across the run.
	epochs := pt.epochs
	boundary := func(i int) int { return cfg.MaxPackets * i / (epochs + 1) }
	var pinned []packet.NodeID
	if pt.mode == rewireKeepFirstHop {
		pinned = []packet.NodeID{moleID}
	}

	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{moleID: keys.Key(moleID)}}
	src := &mole.Source{ID: moleID, Base: packet.Report{Event: 0xC4}, Behavior: mole.MarkNever}
	rng := rand.New(rand.NewSource(seed * 977))

	row := ChurnBenchRow{Mode: pt.mode, Epochs: epochs}
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
			// The stamp pins the arrival epoch to the row's end: the stale
			// tracker reads epoch 0 and the rebuild every logged epoch.
			at := set.Stamp()
			//pnmlint:allow wallclock macro-benchmark reports real observe latency
			t0 := time.Now()
			res := tracker.Observe(msg, at)
			//pnmlint:allow wallclock macro-benchmark reports real observe latency
			row.IncrementalNs += time.Since(t0).Nanoseconds()
			sres := stale.Observe(msg, 0)
			if res.Stopped != sres.Stopped || !reflect.DeepEqual(res.Chain, sres.Chain) {
				row.StaleDivergence++
				if sres.Stopped {
					row.StaleStops++
				}
			}
			rebuild.Observe(msg, at)
			chainLog = append(chainLog, logEntry{msg: msg, at: at})
		}
		if row.PacketsToCatch == 0 && tracker.Verdict().SuspectsContain(moleID) {
			row.PacketsToCatch = injected
		}
		for int(cur) < epochs && injected >= boundary(int(cur)+1) {
			next := nets[cur].Rewire(seed+int64(cur+1)*131, pinned...)
			set.Advance(next)
			nets = append(nets, next)
			cur++
			// The pre-fix world tears its tracker down on every topology
			// change and replays the chain log to recover its state.
			rb, err := newTracker(nil)
			if err != nil {
				return ChurnBenchRow{}, 0, err
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
		return ChurnBenchRow{}, 0, fmt.Errorf("only %d of %d epochs applied", cur, epochs)
	}

	// Suspects is empty without a stop, so SuspectsContain alone is the
	// precision predicate for the catch, the final verdict and the runs.
	v := tracker.Verdict()
	row.Stop = v.Stop
	row.Identified = v.Identified
	row.VerdictHash = verdictDigest(v)
	row.FinalPrecise = v.SuspectsContain(moleID)
	if got := verdictDigest(rebuild.Verdict()); got != row.VerdictHash {
		return ChurnBenchRow{}, 0, fmt.Errorf("full-rebuild verdict hash %s, incremental %s", got, row.VerdictHash)
	}
	for _, e := range chainLog {
		set.Done(e.at, 1)
	}
	if st := set.Stats(); st.Pinned != 0 || st.StaleReads != 0 {
		return ChurnBenchRow{}, 0, fmt.Errorf("epoch set after the hand-back: %+v, want no pin and no stale read", st)
	}
	row.ChainsFolded = reg.Counter("sink.tracker.chains_folded").Value()
	return row, len(tracker.Candidates()), nil
}
