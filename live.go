package pnm

import (
	"pnm/internal/fault"
	"pnm/internal/netsim"
)

// Live (concurrent) network simulation: one goroutine per node, channels
// as radio links, optional loss, and a sink folding packets into a tracker
// as they arrive.
type (
	// LiveConfig configures StartLive.
	LiveConfig = netsim.Config
	// LiveNetwork is a running concurrent simulation; always Close it.
	LiveNetwork = netsim.Network
	// FaultPlan is a deterministic schedule of failures for a live
	// network: node crash/restart, link churn, sink crash/restore.
	FaultPlan = fault.Plan
	// FaultEvent is one scheduled failure in a FaultPlan.
	FaultEvent = fault.Event
	// FaultKind identifies a FaultEvent's failure kind.
	FaultKind = fault.Kind
	// FaultPlanConfig parameterizes GenerateFaultPlan.
	FaultPlanConfig = fault.PlanConfig
	// LiveQueuePolicy selects a live network's inbox overflow behaviour.
	LiveQueuePolicy = netsim.QueuePolicy
)

// The fault kinds a FaultPlan can schedule.
const (
	FaultNodeCrash   = fault.NodeCrash
	FaultNodeRestart = fault.NodeRestart
	FaultLinkDown    = fault.LinkDown
	FaultLinkUp      = fault.LinkUp
	FaultSinkCrash   = fault.SinkCrash
	FaultSinkRestore = fault.SinkRestore
)

// The inbox overflow policies.
const (
	LiveQueueBlock      = netsim.QueueBlock
	LiveQueueDropNewest = netsim.QueueDropNewest
	LiveQueueDropOldest = netsim.QueueDropOldest
)

// GenerateFaultPlan builds a seeded, reproducible fault plan for topo.
func GenerateFaultPlan(seed int64, topo *Topology, cfg FaultPlanConfig) *FaultPlan {
	return fault.Generate(seed, topo, cfg)
}

// StartLive spins up a concurrent network simulation.
func StartLive(cfg LiveConfig) (*LiveNetwork, error) { return netsim.Start(cfg) }

// StartLiveSystem starts a live simulation of this system with the given
// colluding forwarders.
func (s *System) StartLiveSystem(moles map[NodeID]*ForwarderMole, env *AdversaryEnv, seed int64) (*LiveNetwork, error) {
	return netsim.Start(netsim.Config{
		Topo:             s.topo,
		Keys:             s.keys,
		Scheme:           s.scheme,
		Moles:            moles,
		Env:              env,
		Seed:             seed,
		TopologyResolver: s.UseTopologyResolver,
	})
}
