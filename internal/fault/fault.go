// Package fault defines the fault-plan vocabulary shared by the live
// simulator (internal/netsim) and the network ingest server
// (internal/transport): a deterministic, seeded schedule of node crashes
// and restarts, link churn, and sink crashes with restore from a PNM2
// tracker checkpoint. Events fire at *progress milestones* — counts of
// settled packets (delivered plus accounted drops) — not at wall-clock
// instants, so the same plan against the same traffic produces the same
// history regardless of scheduling jitter or machine speed.
//
// The package holds data only. Each layer applies events its own way:
// netsim.Network.ApplyDue from the caller's goroutine at settled
// boundaries, the transport server on its sink goroutine at
// processed-frame milestones.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"pnm/internal/packet"
	"pnm/internal/topology"
)

// Kind identifies one kind of scheduled failure.
type Kind int

// The fault kinds.
const (
	// NodeCrash kills a node: goroutine exits, inbox drains to the floor,
	// routes repair around it.
	NodeCrash Kind = iota + 1
	// NodeRestart reboots a crashed node with rebuilt (empty) state.
	NodeRestart
	// LinkDown cuts the node's link to its current parent; the subtree
	// re-homes through an alternate neighbor if one exists.
	LinkDown
	// LinkUp restores every link previously cut for the node.
	LinkUp
	// SinkCrash kills the sink after checkpointing the tracker (PNM2);
	// arrivals while it is down are dropped.
	SinkCrash
	// SinkRestore rebuilds the sink chain from the crash checkpoint.
	SinkRestore
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case NodeRestart:
		return "node-restart"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case SinkCrash:
		return "sink-crash"
	case SinkRestore:
		return "sink-restore"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled failure.
type Event struct {
	// At is the progress milestone — settled packets (delivered plus
	// accounted drops) — at which the event fires.
	At int
	// Kind selects the failure.
	Kind Kind
	// Node is the victim for node and link events; ignored for sink
	// events.
	Node packet.NodeID
}

// String renders the event for logs and benchmark rows.
func (e Event) String() string {
	switch e.Kind {
	case SinkCrash, SinkRestore:
		return fmt.Sprintf("@%d %s", e.At, e.Kind)
	}
	return fmt.Sprintf("@%d %s n%d", e.At, e.Kind, e.Node)
}

// Plan is a deterministic schedule of failures.
type Plan struct {
	// Events fire in order; At milestones must be non-decreasing.
	Events []Event
}

// PlanConfig parameterizes Generate.
type PlanConfig struct {
	// Start is the first event's milestone; Step spaces the rest.
	// Defaults: 20 and 20.
	Start, Step int
	// NodeChurn schedules this many crash→restart pairs.
	NodeChurn int
	// LinkChurn schedules this many link-down→link-up pairs.
	LinkChurn int
	// SinkCrashes schedules this many sink crash→restore pairs.
	SinkCrashes int
	// Protect lists nodes never crashed or link-cut (e.g. the mole and
	// its first hop, whose ordering evidence the traceback needs).
	Protect []packet.NodeID
	// Candidates is the victim pool; nil means every forwarder in topo.
	Candidates []packet.NodeID
}

// Generate builds a seeded plan: victims are drawn without replacement
// from the candidate pool (minus protected nodes), and churn pairs
// interleave crash/down events with their recoveries one Step later. The
// same seed, topology and config always yield the same plan.
func Generate(seed int64, topo *topology.Network, cfg PlanConfig) *Plan {
	if cfg.Start <= 0 {
		cfg.Start = 20
	}
	if cfg.Step <= 0 {
		cfg.Step = 20
	}
	protected := make(map[packet.NodeID]bool, len(cfg.Protect))
	for _, id := range cfg.Protect {
		protected[id] = true
	}
	pool := cfg.Candidates
	if pool == nil {
		pool = topo.Nodes()
	}
	victims := make([]packet.NodeID, 0, len(pool))
	for _, id := range pool {
		if id != packet.SinkID && !protected[id] {
			victims = append(victims, id)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })

	plan := &Plan{}
	at := cfg.Start
	next := func() packet.NodeID {
		if len(victims) == 0 {
			return 0
		}
		v := victims[0]
		victims = victims[1:]
		return v
	}
	for i := 0; i < cfg.NodeChurn; i++ {
		v := next()
		if v == 0 {
			break
		}
		plan.Events = append(plan.Events,
			Event{At: at, Kind: NodeCrash, Node: v},
			Event{At: at + cfg.Step, Kind: NodeRestart, Node: v})
		at += 2 * cfg.Step
	}
	for i := 0; i < cfg.LinkChurn; i++ {
		v := next()
		if v == 0 {
			break
		}
		plan.Events = append(plan.Events,
			Event{At: at, Kind: LinkDown, Node: v},
			Event{At: at + cfg.Step, Kind: LinkUp, Node: v})
		at += 2 * cfg.Step
	}
	for i := 0; i < cfg.SinkCrashes; i++ {
		plan.Events = append(plan.Events,
			Event{At: at, Kind: SinkCrash},
			Event{At: at + cfg.Step, Kind: SinkRestore})
		at += 2 * cfg.Step
	}
	sort.SliceStable(plan.Events, func(i, j int) bool { return plan.Events[i].At < plan.Events[j].At })
	return plan
}
