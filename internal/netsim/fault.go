package netsim

// Fault injection and crash recovery for the live simulator: the
// mechanics behind the internal/fault vocabulary.
//
// A caller applies a plan from its own goroutine: ApplyDue after each
// WaitSettled fires every event whose milestone has been reached, so the
// plan lands at quiescent points and the run is exactly reproducible.
// ApplyFault applies one event immediately.
//
// Crash semantics: the node's goroutine exits, its inbox drains to the
// floor (every frame counted as a fault drop), and the routing view is
// recomputed so the dead node's subtree re-homes around it (or orphans,
// if no alternate path exists). Restart rebuilds the stack from zero —
// a rebooted mote's RAM — and respawns the goroutine with an
// incarnation-salted RNG. Sink crash and restore are the sink host's
// (sink.Host): crash checkpoints the tracker, restore rebuilds the sink
// chain from that checkpoint, so neither the order matrix nor the packet
// count is lost. The sink goroutine lives on through the outage and
// drops what it dequeues.

import (
	"pnm/internal/fault"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// faultCounters groups the fault layer's observability bindings. All
// fields are nil-safe no-ops until bind is called.
type faultCounters struct {
	nodeCrashes  *obs.Counter
	nodeRestarts *obs.Counter
	linkDown     *obs.Counter
	linkUp       *obs.Counter
	sinkCrashes  *obs.Counter
	sinkRestores *obs.Counter
	reroutes     *obs.Counter

	// Terminal drop reasons introduced by the fault layer.
	inboxDropped  *obs.Counter // drained from a crashed node's inbox
	sinkDropped   *obs.Counter // dequeued by the sink while it was down
	droppedToDown *obs.Counter // next hop (or sink) was down at send time
	orphanDropped *obs.Counter // no route to the sink at send time
	sendAborted   *obs.Counter // sender crashed while blocked on a full queue
}

func (f *faultCounters) bind(reg *obs.Registry) {
	f.nodeCrashes = reg.Counter("netsim.fault.node_crashes")
	f.nodeRestarts = reg.Counter("netsim.fault.node_restarts")
	f.linkDown = reg.Counter("netsim.fault.link_down")
	f.linkUp = reg.Counter("netsim.fault.link_up")
	f.sinkCrashes = reg.Counter("netsim.fault.sink_crashes")
	f.sinkRestores = reg.Counter("netsim.fault.sink_restores")
	f.reroutes = reg.Counter("netsim.fault.reroutes")
	f.inboxDropped = reg.Counter("netsim.fault.inbox_dropped")
	f.sinkDropped = reg.Counter("netsim.fault.sink_dropped")
	f.droppedToDown = reg.Counter("netsim.fault.dropped_to_down")
	f.orphanDropped = reg.Counter("netsim.fault.orphan_dropped")
	f.sendAborted = reg.Counter("netsim.fault.send_aborted")
}

// ApplyDue applies, in order, every plan event from index next on whose
// milestone is at or below the settled count (delivered plus accounted
// drops), and returns the index of the first event still pending. Called
// after WaitSettled, it fires each event at the same point of the
// traffic on every run.
func (n *Network) ApplyDue(plan *fault.Plan, next int) int {
	settled, _ := n.ledger()
	for ; next < len(plan.Events) && plan.Events[next].At <= settled; next++ {
		n.ApplyFault(plan.Events[next])
	}
	return next
}

// ApplyFault applies one fault event immediately, from the caller's
// goroutine. Events are idempotent: crashing a dead node, restarting a
// live one, or restoring a healthy sink are no-ops. Safe from any
// goroutine; applications serialize.
func (n *Network) ApplyFault(ev fault.Event) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	switch ev.Kind {
	case fault.NodeCrash:
		n.crashNodeLocked(ev.Node)
	case fault.NodeRestart:
		n.restartNodeLocked(ev.Node)
	case fault.LinkDown:
		n.linkDownLocked(ev.Node)
	case fault.LinkUp:
		n.linkUpLocked(ev.Node)
	case fault.SinkCrash:
		if n.sink.Crash() {
			n.obsFault.sinkCrashes.Inc()
		}
	case fault.SinkRestore:
		if n.sink.Restore() {
			n.obsFault.sinkRestores.Inc()
		}
	}
}

// crashNodeLocked kills one node: the goroutine exits, queued frames die
// with it, routes repair around the corpse. Callers hold faultMu.
func (n *Network) crashNodeLocked(id packet.NodeID) {
	if id == packet.SinkID || n.inbox[id] == nil {
		return
	}
	n.stateMu.RLock()
	down := n.nodeDown[id]
	n.stateMu.RUnlock()
	if down {
		return
	}
	close(n.nodeKill[id])
	<-n.nodeDone[id]
	// Mark it down before draining so new arrivals drop at the sender
	// instead of racing into the drained queue.
	n.stateMu.Lock()
	n.nodeDown[id] = true
	n.stateMu.Unlock()
	n.drainInbox(id)
	n.recomputeRoutesLocked()
	n.obsFault.nodeCrashes.Inc()
}

// restartNodeLocked reboots a crashed node: fresh stack (state rebuilt
// from zero), fresh goroutine, incarnation-salted RNG. Callers hold
// faultMu.
func (n *Network) restartNodeLocked(id packet.NodeID) {
	if id == packet.SinkID || n.inbox[id] == nil {
		return
	}
	n.stateMu.RLock()
	down := n.nodeDown[id]
	n.stateMu.RUnlock()
	if !down {
		return
	}
	// Frames that raced past the down check after the crash drain died
	// with the old incarnation; sweep any stragglers before rebooting.
	n.drainInbox(id)
	n.incarnation[id]++
	fresh := n.newNode(id)
	n.stateMu.Lock()
	n.nodes[id] = fresh
	n.nodeDown[id] = false
	n.stateMu.Unlock()
	n.spawnNode(id, fresh)
	n.recomputeRoutesLocked()
	n.obsFault.nodeRestarts.Inc()
}

// drainInbox empties a dead node's queue, accounting every frame as a
// terminal fault drop so settledness stays sound.
func (n *Network) drainInbox(id packet.NodeID) {
	for {
		select {
		case <-n.inbox[id]:
			n.noteDrop(n.obsFault.inboxDropped)
		default:
			return
		}
	}
}

// linkDownLocked cuts id's link to its *current* parent. If the node is
// already orphaned (or down) there is nothing to cut. Callers hold
// faultMu.
func (n *Network) linkDownLocked(id packet.NodeID) {
	if id == packet.SinkID || n.inbox[id] == nil {
		return
	}
	n.stateMu.RLock()
	routable := n.routes.HasRoute(id)
	var hop packet.NodeID
	if routable {
		hop = n.routes.Parent(id)
	}
	n.stateMu.RUnlock()
	if !routable {
		return
	}
	n.linksDown[id] = append(n.linksDown[id], normLink(id, hop))
	n.recomputeRoutesLocked()
	n.obsFault.linkDown.Inc()
}

// linkUpLocked restores every link previously cut for id. Callers hold
// faultMu.
func (n *Network) linkUpLocked(id packet.NodeID) {
	if len(n.linksDown[id]) == 0 {
		return
	}
	delete(n.linksDown, id)
	n.recomputeRoutesLocked()
	n.obsFault.linkUp.Inc()
}

// normLink orders a link's endpoints so (a,b) and (b,a) are the same cut.
func normLink(a, b packet.NodeID) [2]packet.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]packet.NodeID{a, b}
}

// recomputeRoutesLocked rebuilds the routing view for the current fault
// state. With no faults outstanding it restores cfg.Topo itself, so the
// fault-free fast path never pays for repair. Callers hold faultMu, which
// also freezes the nodeDown/linksDown state the predicates read.
func (n *Network) recomputeRoutesLocked() {
	var next *topology.Network
	cut := make(map[[2]packet.NodeID]bool)
	for _, links := range n.linksDown {
		for _, l := range links {
			cut[l] = true
		}
	}
	anyDown := false
	for _, d := range n.nodeDown {
		if d {
			anyDown = true
			break
		}
	}
	if !anyDown && len(cut) == 0 {
		next = n.cfg.Topo
	} else {
		next = n.cfg.Topo.Reroute(
			func(id packet.NodeID) bool { return n.nodeDown[id] },
			func(a, b packet.NodeID) bool { return cut[normLink(a, b)] },
		)
	}
	n.stateMu.Lock()
	n.routes = next
	n.stateMu.Unlock()
	// Every repair opens a new topology epoch: packets already queued keep
	// the epoch they arrived under, packets delivered from here on stamp
	// the new version and resolve against the repaired tree.
	n.epochs.Advance(next)
	n.obsFault.reroutes.Inc()
}
