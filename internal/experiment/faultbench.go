package experiment

// FaultBench (E20, committed as BENCH_fault.json): traceback convergence
// under deterministic fault plans in the live simulator. Each scenario
// runs the same seeded traffic on the same geometric topology; fault
// events are applied at quiescent batch boundaries (after WaitSettled),
// which makes every run exactly reproducible. The headline claim the
// bench both measures and enforces: with the mole and its first hop
// protected from churn, a faulted network reaches the *same* one-hop-
// precise verdict as the fault-free baseline — it just needs more
// packets. Rows commit the packets-to-catch deltas.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"pnm/internal/analytic"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/netsim"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// FaultBenchConfig parameterizes the fault benchmark.
type FaultBenchConfig struct {
	// Nodes, Side, RadioRange shape the random geometric topology (the
	// sink is additional, at the corner).
	Nodes      int     `json:"nodes"`
	Side       float64 `json:"side"`
	RadioRange float64 `json:"radio_range"`
	// Seed drives placement, traffic and every fault plan.
	Seed int64 `json:"seed"`
	// Batch is the injection batch size; verdict checks and fault events
	// land only on batch boundaries.
	Batch int `json:"batch"`
	// MaxPackets bounds each scenario's injected traffic.
	MaxPackets int `json:"max_packets"`
	// NodeChurn, LinkChurn, SinkCrashes size the per-scenario plans.
	NodeChurn   int `json:"node_churn"`
	LinkChurn   int `json:"link_churn"`
	SinkCrashes int `json:"sink_crashes"`
}

// DefaultFaultBench is the committed configuration.
func DefaultFaultBench() FaultBenchConfig {
	return FaultBenchConfig{
		Nodes: 140, Side: 7, RadioRange: 1.5,
		Seed:  29,
		Batch: 25, MaxPackets: 2000,
		NodeChurn: 3, LinkChurn: 3, SinkCrashes: 2,
	}
}

// FaultBenchRow is one scenario outcome.
type FaultBenchRow struct {
	// Scenario names the fault mix.
	Scenario string `json:"scenario"`
	// Events is the applied plan, rendered "@milestone kind node".
	Events []string `json:"events,omitempty"`
	// InjectedToCatch is the injected-packet count at the first batch
	// boundary where the verdict is unequivocal and contains the mole;
	// 0 means the scenario never converged within MaxPackets (the bench
	// errors out in that case rather than committing it).
	InjectedToCatch int `json:"injected_to_catch"`
	// DeltaVsBaseline is InjectedToCatch minus the baseline's.
	DeltaVsBaseline int `json:"delta_vs_baseline"`
	// Injected, Delivered, Dropped account every packet of the full run.
	Injected  int `json:"injected"`
	Delivered int `json:"delivered"`
	Dropped   int `json:"dropped"`
	// Stop and Suspects are the final verdict, identical across scenarios
	// by construction (the bench errors out otherwise).
	Stop       packet.NodeID   `json:"stop"`
	Suspects   []packet.NodeID `json:"suspects"`
	Identified bool            `json:"identified"`
}

// FaultBenchResult is the committed document.
type FaultBenchResult struct {
	Env    BenchEnv         `json:"env"`
	Config FaultBenchConfig `json:"config"`
	// Mole is the planted source; FirstHop its protected parent.
	Mole     packet.NodeID   `json:"mole"`
	FirstHop packet.NodeID   `json:"first_hop"`
	Depth    int             `json:"mole_depth"`
	Rows     []FaultBenchRow `json:"rows"`
	Note     string          `json:"note"`
}

// faultScenario pairs a name with a plan generator.
type faultScenario struct {
	name string
	plan func(topo *topology.Network, protect []packet.NodeID, cfg FaultBenchConfig) *netsim.FaultPlan
}

// faultScenarios is the committed scenario set. Each single-kind plan is
// seeded independently of the others (cfg.Seed plus a per-kind offset),
// and the combined scenario is the exact superposition of the three
// single-kind plans — same victims, same milestones — so its rows isolate
// interaction effects rather than a fourth, unrelated schedule. Outages
// last 4*Batch packets (Step), long enough to cover the batch where the
// baseline's deciding evidence lands; recovery cost is then visible in
// injected_to_catch instead of hiding between two verdict checks.
func faultScenarios() []faultScenario {
	churn := func(seedOff int64, node, link, sinkCrash int) func(*topology.Network, []packet.NodeID, FaultBenchConfig) *netsim.FaultPlan {
		return func(topo *topology.Network, protect []packet.NodeID, cfg FaultBenchConfig) *netsim.FaultPlan {
			return netsim.GenerateFaultPlan(cfg.Seed+seedOff, topo, netsim.FaultPlanConfig{
				Start: cfg.Batch, Step: 4 * cfg.Batch,
				NodeChurn: node, LinkChurn: link, SinkCrashes: sinkCrash,
				Protect: protect,
			})
		}
	}
	nodePlan := func(topo *topology.Network, protect []packet.NodeID, cfg FaultBenchConfig) *netsim.FaultPlan {
		return churn(101, cfg.NodeChurn, 0, 0)(topo, protect, cfg)
	}
	linkPlan := func(topo *topology.Network, protect []packet.NodeID, cfg FaultBenchConfig) *netsim.FaultPlan {
		return churn(202, 0, cfg.LinkChurn, 0)(topo, protect, cfg)
	}
	sinkPlan := func(topo *topology.Network, protect []packet.NodeID, cfg FaultBenchConfig) *netsim.FaultPlan {
		return churn(303, 0, 0, cfg.SinkCrashes)(topo, protect, cfg)
	}
	return []faultScenario{
		{name: "baseline", plan: func(*topology.Network, []packet.NodeID, FaultBenchConfig) *netsim.FaultPlan {
			return &netsim.FaultPlan{}
		}},
		{name: "node-churn", plan: nodePlan},
		{name: "link-churn", plan: linkPlan},
		{name: "sink-crash", plan: sinkPlan},
		{name: "combined", plan: func(topo *topology.Network, protect []packet.NodeID, cfg FaultBenchConfig) *netsim.FaultPlan {
			merged := &netsim.FaultPlan{}
			for _, p := range []*netsim.FaultPlan{
				nodePlan(topo, protect, cfg),
				linkPlan(topo, protect, cfg),
				sinkPlan(topo, protect, cfg),
			} {
				merged.Events = append(merged.Events, p.Events...)
			}
			sort.SliceStable(merged.Events, func(i, j int) bool {
				return merged.Events[i].At < merged.Events[j].At
			})
			return merged
		}},
	}
}

// FaultBench runs every scenario and enforces the verdict-equality
// invariant: any scenario whose final verdict differs from the fault-free
// baseline's is an error, not a row.
func FaultBench(cfg FaultBenchConfig) (*FaultBenchResult, error) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: cfg.Nodes, Side: cfg.Side, RadioRange: cfg.RadioRange,
		Seed: cfg.Seed, SinkAtCorner: true,
	})
	if err != nil {
		return nil, err
	}
	moleID := topo.DeepestNode()
	hops := topo.Depth(moleID) - 1
	if hops < 3 {
		return nil, fmt.Errorf("faultbench: degenerate placement, mole depth %d", hops+1)
	}
	firstHop := topo.Parent(moleID)
	// Under one expected mark per packet: evidence trickles in over many
	// batches, so faults fire *during* collection and their cost shows up
	// in the injected-to-catch deltas instead of after the fact.
	scheme := marking.PNM{P: analytic.ProbabilityForMarks(hops, 0.8)}
	protect := []packet.NodeID{moleID, firstHop}

	res := &FaultBenchResult{
		Env:    CaptureBenchEnv(false),
		Config: cfg, Mole: moleID, FirstHop: firstHop, Depth: topo.Depth(moleID),
		Note: "fault events applied at settled batch boundaries; verdict equality with the fault-free baseline is enforced at generation time",
	}
	for _, sc := range faultScenarios() {
		plan := sc.plan(topo, protect, cfg)
		row, err := runFaultScenario(sc.name, topo, moleID, scheme, plan, cfg)
		if err != nil {
			return nil, fmt.Errorf("faultbench: scenario %s: %w", sc.name, err)
		}
		if sc.name != "baseline" {
			base := res.Rows[0]
			if row.Stop != base.Stop || row.Identified != base.Identified ||
				!reflect.DeepEqual(row.Suspects, base.Suspects) {
				return nil, fmt.Errorf(
					"faultbench: scenario %s verdict (stop %v, identified %v, suspects %v) diverges from baseline (stop %v, identified %v, suspects %v)",
					sc.name, row.Stop, row.Identified, row.Suspects,
					base.Stop, base.Identified, base.Suspects)
			}
			row.DeltaVsBaseline = row.InjectedToCatch - base.InjectedToCatch
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runFaultScenario drives one scenario: seeded traffic in batches, plan
// events applied as their milestones are crossed (always at a settled
// boundary), verdict checked per batch.
func runFaultScenario(name string, topo *topology.Network, moleID packet.NodeID, scheme marking.Scheme, plan *netsim.FaultPlan, cfg FaultBenchConfig) (FaultBenchRow, error) {
	keys := mac.NewKeyStore([]byte(fmt.Sprintf("faultbench-%d", cfg.Seed)))
	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{moleID: keys.Key(moleID)}}
	src := &mole.Source{ID: moleID, Base: packet.Report{Event: 0xFA}, Behavior: mole.MarkNever}
	net, err := netsim.Start(netsim.Config{
		Topo: topo, Keys: keys, Scheme: scheme, Env: env, Seed: cfg.Seed,
	})
	if err != nil {
		return FaultBenchRow{}, err
	}
	defer net.Close()

	row := FaultBenchRow{Scenario: name}
	for _, ev := range plan.Events {
		row.Events = append(row.Events, ev.String())
	}
	// Traffic is generated by a scheme-driven source with its own RNG so
	// every scenario injects byte-identical reports.
	rng := rand.New(rand.NewSource(cfg.Seed * 977))
	next := 0
	for injected := 0; injected < cfg.MaxPackets; {
		for end := injected + cfg.Batch; injected < end && injected < cfg.MaxPackets; injected++ {
			if err := net.Inject(moleID, src.Next(env, rng)); err != nil {
				return FaultBenchRow{}, err
			}
		}
		if err := net.WaitSettled(30 * time.Second); err != nil {
			return FaultBenchRow{}, err
		}
		for next < len(plan.Events) && plan.Events[next].At <= injected {
			net.ApplyFault(plan.Events[next])
			next++
		}
		row.Injected = injected
		if row.InjectedToCatch == 0 {
			if v := net.Verdict(); v.Identified && v.SuspectsContain(moleID) {
				row.InjectedToCatch = injected
			}
		}
	}
	if err := net.WaitSettled(30 * time.Second); err != nil {
		return FaultBenchRow{}, err
	}
	if row.InjectedToCatch == 0 {
		return FaultBenchRow{}, fmt.Errorf("no unequivocal identification within %d packets", cfg.MaxPackets)
	}
	v := net.Verdict()
	row.Stop = v.Stop
	row.Suspects = v.Suspects
	row.Identified = v.Identified
	row.Delivered = net.Delivered()
	row.Dropped = net.Dropped()
	return row, nil
}
