// Package isolation implements the active fight-back the paper motivates
// (§1, §7): once PNM localizes a mole to a one-hop neighborhood, the sink
// quarantines that neighborhood — neighbors stop forwarding traffic that
// originates from or passes through suspected nodes — and re-runs
// traceback to catch remaining colluders one by one.
package isolation

import (
	"fmt"
	"math/rand"

	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/sim"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// Manager tracks the quarantined node set.
type Manager struct {
	topo        *topology.Network
	blacklisted map[packet.NodeID]bool
}

// NewManager returns an empty quarantine over the given network.
func NewManager(topo *topology.Network) *Manager {
	return &Manager{topo: topo, blacklisted: make(map[packet.NodeID]bool)}
}

// Quarantine blacklists the given nodes.
func (m *Manager) Quarantine(ids ...packet.NodeID) {
	for _, id := range ids {
		if id != packet.SinkID {
			m.blacklisted[id] = true
		}
	}
}

// QuarantineVerdict blacklists a traceback verdict's suspected
// neighborhood.
func (m *Manager) QuarantineVerdict(v sink.Verdict) {
	if v.HasStop {
		m.Quarantine(v.Suspects...)
	}
}

// Blacklisted reports whether id is quarantined.
func (m *Manager) Blacklisted(id packet.NodeID) bool { return m.blacklisted[id] }

// Count returns how many nodes are quarantined.
func (m *Manager) Count() int { return len(m.blacklisted) }

// ShouldDrop is the per-hop forwarding policy quarantine induces: a
// legitimate forwarder refuses packets arriving from a blacklisted
// previous hop. Plug it into sim.Net.Drop.
func (m *Manager) ShouldDrop(prev, _ packet.NodeID) bool {
	return m.blacklisted[prev]
}

// Campaign drives an iterative catch-and-quarantine hunt against multiple
// source moles on one network.
type Campaign struct {
	// Net is the network bundle (topology, keys, scheme, forwarding
	// moles).
	Net *sim.Net
	// Sources are the injecting moles.
	Sources []*mole.Source
	// Manager is the quarantine state, shared with Net.Drop.
	Manager *Manager
	// TopologyResolver selects the O(d) anonymous-ID search.
	TopologyResolver bool

	rng *rand.Rand
}

// NewCampaign wires a campaign: the network's Drop policy is pointed at a
// fresh quarantine manager.
func NewCampaign(net *sim.Net, sources []*mole.Source, seed int64) *Campaign {
	mgr := NewManager(net.Topo)
	net.Drop = mgr.ShouldDrop
	return &Campaign{
		Net:     net,
		Sources: sources,
		Manager: mgr,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// ActiveSources returns the sources whose injected traffic can still reach
// the sink under the current quarantine.
func (c *Campaign) ActiveSources() []packet.NodeID {
	var out []packet.NodeID
	for _, s := range c.Sources {
		if c.pathOpen(s.ID) {
			out = append(out, s.ID)
		}
	}
	return out
}

// pathOpen reports whether traffic from src can reach the sink: no hop on
// its path drops it due to quarantine.
func (c *Campaign) pathOpen(src packet.NodeID) bool {
	prev := src
	for _, hop := range c.Net.Topo.Forwarders(src) {
		if c.Net.Moles[hop] == nil && c.Manager.ShouldDrop(prev, hop) {
			return false
		}
		prev = hop
	}
	// The sink itself also refuses traffic handed to it by a blacklisted
	// neighbor.
	return !c.Manager.Blacklisted(prev)
}

// Round injects packets from every still-active source, runs traceback on
// whatever reaches the sink, and quarantines the verdict's neighborhood.
// It returns the round's verdict.
func (c *Campaign) Round(packets int) (sink.Verdict, error) {
	tracker, err := c.Net.NewTracker(c.TopologyResolver)
	if err != nil {
		return sink.Verdict{}, err
	}
	delivered := 0
	for i := 0; i < packets; i++ {
		for _, s := range c.Sources {
			msg := s.Next(c.Net.Env, c.rng)
			out, ok := c.Net.Deliver(s.ID, msg, c.rng)
			if !ok {
				continue
			}
			if c.Manager.Blacklisted(lastHop(c.Net.Topo, s.ID)) {
				continue // the sink refuses its blacklisted neighbor
			}
			tracker.Observe(out, 0)
			delivered++
		}
	}
	v := tracker.Verdict()
	c.Manager.QuarantineVerdict(v)
	return v, nil
}

// lastHop returns the final forwarder before the sink on src's path, or
// src itself for sink-adjacent sources.
func lastHop(topo *topology.Network, src packet.NodeID) packet.NodeID {
	fwd := topo.Forwarders(src)
	if len(fwd) == 0 {
		return src
	}
	return fwd[len(fwd)-1]
}

// Run executes rounds until every source is cut off or maxRounds is
// reached, returning the verdicts. It errors if a round makes no progress
// (no active source was quarantined and none went inactive).
func (c *Campaign) Run(maxRounds, packetsPerRound int) ([]sink.Verdict, error) {
	var verdicts []sink.Verdict
	for round := 0; round < maxRounds; round++ {
		active := len(c.ActiveSources())
		if active == 0 {
			return verdicts, nil
		}
		v, err := c.Round(packetsPerRound)
		if err != nil {
			return verdicts, err
		}
		verdicts = append(verdicts, v)
		if len(c.ActiveSources()) >= active && !v.HasStop {
			return verdicts, fmt.Errorf("isolation: round %d made no progress (%d sources active)",
				round+1, active)
		}
	}
	if len(c.ActiveSources()) > 0 {
		return verdicts, fmt.Errorf("isolation: %d sources still active after %d rounds",
			len(c.ActiveSources()), maxRounds)
	}
	return verdicts, nil
}
