// Package netsim is the concurrent network simulator: one goroutine per
// sensor node running the full forwarding stack (duplicate suppression,
// en-route filtering, quarantine honoring, marking — or mole behaviour),
// channels as radio links, optional link loss, and a sink goroutine
// folding received packets into the traceback tracker. It proves the
// protocol under concurrency, loss and reordering; the figures use the
// synchronous engine in internal/sim.
//
// A fault layer (fault.go) injects the failures a deployed network lives
// with: node crash/restart, link churn with BFS route repair, configurable
// queue-overflow policies, and sink crash/restore from a PNM2 tracker
// checkpoint. Every packet accepted by Inject terminates exactly once —
// delivered at the sink or dropped with an accounted reason — which is
// what WaitSettled and the fault plans' progress milestones build on.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pnm/internal/energy"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/node"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/queue"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// Config describes a live network.
type Config struct {
	// Topo is the routing substrate.
	Topo *topology.Network
	// Keys is the shared key store.
	Keys *mac.KeyStore
	// Scheme is the deployed marking scheme.
	Scheme marking.Scheme
	// Moles maps compromised forwarders to their behaviours.
	Moles map[packet.NodeID]*mole.Forwarder
	// Env is the moles' knowledge.
	Env *mole.Env
	// LossProb is the per-link packet-loss probability.
	LossProb float64
	// Seed derives each node's private RNG.
	Seed int64
	// QueueLen is the per-node inbox depth (default 64).
	QueueLen int
	// QueuePolicy selects the overflow behaviour of full inboxes: lossless
	// blocking backpressure (the default) or graceful degradation by
	// dropping the newest or oldest frame.
	QueuePolicy queue.Policy

	// SuppressorCapacity arms per-node duplicate suppression when
	// positive.
	SuppressorCapacity int
	// FilterDetectProb arms SEF-like en-route filtering when positive;
	// BogusReport must then identify attack traffic.
	FilterDetectProb float64
	// BogusReport is the filtering model's ground truth: whether a report
	// is detectably false. Nil means nothing is filtered.
	BogusReport func(packet.Report) bool
	// Blacklisted arms quarantine honoring: legitimate nodes refuse
	// traffic from blacklisted previous hops. May be nil.
	Blacklisted func(packet.NodeID) bool
	// Energy, when non-nil, accounts each node's radio spend.
	Energy *energy.Model
	// Obs, when non-nil, binds the simulator's counters (netsim.*) and the
	// whole sink chain's (sink.*, via Tracker.Instrument) into the
	// registry.
	Obs *obs.Registry
}

// transmission is one radio frame in flight. epoch is meaningful only on
// the final sink hop: deliver stamps it with the topology epoch current
// at arrival, and the sink loop hands it to verification so marks resolve
// against the tree the packet was forwarded under.
type transmission struct {
	from  packet.NodeID
	msg   packet.Message
	epoch topology.EpochVersion
}

// Network is a running simulation. Always Close it.
type Network struct {
	cfg    Config
	inbox  map[packet.NodeID]chan transmission
	sinkCh chan transmission
	stop   chan struct{}
	wg     sync.WaitGroup

	// sink is the tracker, verifier chain, crash checkpoint, delivered
	// count and progress broadcast the sink goroutine folds through, the
	// same host transport.Server runs its sink on. Verdict reads, the
	// waits and sink crash/restore synchronize inside it.
	sink *sink.Host

	// injectRng draws the loss decision for injected packets' first radio
	// hop. Node goroutines own private RNGs; injection can come from any
	// goroutine, so its draws serialize under injectMu.
	injectMu  sync.Mutex
	injectRng *rand.Rand

	// stateMu guards the hot-path-read fault state: the per-node stacks
	// (replaced on restart), the down markers, and the current routing
	// view. Writers are fault applications serialized under faultMu.
	stateMu  sync.RWMutex
	nodes    map[packet.NodeID]*node.Node
	nodeDown map[packet.NodeID]bool
	routes   *topology.Network

	// epochs is the topology history shared with every topology
	// resolver; internally synchronized, so it needs no lock here. Route
	// repairs advance it under faultMu; a frame pins its epoch from the
	// sink hop until it leaves.
	epochs *topology.EpochSet

	// faultMu serializes fault application (fault.go) and guards the
	// bookkeeping only faults touch: kill/done channels, incarnation
	// counts and downed links.
	faultMu     sync.Mutex
	nodeKill    map[packet.NodeID]chan struct{}
	nodeDone    map[packet.NodeID]chan struct{}
	incarnation map[packet.NodeID]int64
	linksDown   map[packet.NodeID][][2]packet.NodeID

	// mu guards the settledness ledger beside the sink's delivered
	// count. Every accounted drop is followed by a sink.Publish, so
	// WaitSettled parks on the sink's progress broadcast.
	mu       sync.Mutex
	injected int // pnmlint:guarded-by mu
	dropped  int // pnmlint:guarded-by mu

	// obs bindings; nil (no-op) unless cfg.Obs was set.
	obsDelivered        *obs.Counter
	obsRadioLost        *obs.Counter
	obsQueueFullBlocks  *obs.Counter
	obsQueueDropNewest  *obs.Counter
	obsQueueDropOldest  *obs.Counter
	obsBlacklistRefused *obs.Counter
	obsNodeDropped      *obs.Counter
	obsFault            faultCounters

	closeOnce sync.Once
}

// injectSeedSalt separates the injection RNG's stream from the per-node
// streams, which are salted with the node ID.
const injectSeedSalt = 0x51B5_D3F0_19C6_A7E3

// incarnationSeedSalt separates a restarted node's RNG stream from its
// previous lives'.
const incarnationSeedSalt = 0x5DEECE66D

// errClosed reports injection into a stopped network.
var errClosed = errors.New("netsim: network closed")

// Start spins up the node and sink goroutines.
func Start(cfg Config) (*Network, error) {
	if cfg.Topo == nil || cfg.Keys == nil || cfg.Scheme == nil {
		return nil, errors.New("netsim: topo, keys and scheme are required")
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 64
	}
	if cfg.Env == nil {
		cfg.Env = &mole.Env{Scheme: cfg.Scheme, StolenKeys: map[packet.NodeID]mac.Key{}}
	}
	// epochs is the topology history: epoch 0 is the base tree, every
	// route repair advances to the repaired snapshot
	// (recomputeRoutesLocked). Packets are stamped with the epoch current
	// at sink arrival and topology-restricted resolvers walk that epoch's
	// tree — the stale-resolver fix.
	epochs := topology.NewEpochSet(cfg.Topo)
	// Every sink incarnation — the first and each post-crash restore —
	// builds its own verifier chain through this factory; only the
	// KeyStore, the epoch set and obs counters are shared. Only the scheme
	// can make it fail, so the check here covers every later call.
	newVerifier := func() (sink.Verifier, error) {
		r := sink.NewTopologyResolverEpochs(cfg.Keys, epochs)
		return sink.NewVerifier(cfg.Scheme, cfg.Keys, cfg.Topo.NumNodes(), r)
	}
	if _, err := newVerifier(); err != nil {
		return nil, err
	}

	n := &Network{
		cfg:       cfg,
		nodes:     make(map[packet.NodeID]*node.Node, cfg.Topo.NumNodes()),
		inbox:     make(map[packet.NodeID]chan transmission, cfg.Topo.NumNodes()),
		sinkCh:    make(chan transmission, cfg.QueueLen),
		stop:      make(chan struct{}),
		injectRng: rand.New(rand.NewSource(cfg.Seed ^ injectSeedSalt)),
		sink: sink.NewHost(func() sink.Verifier {
			v, _ := newVerifier()
			return v
		}, cfg.Topo, cfg.Obs),
		routes:      cfg.Topo,
		epochs:      epochs,
		nodeDown:    make(map[packet.NodeID]bool),
		nodeKill:    make(map[packet.NodeID]chan struct{}),
		nodeDone:    make(map[packet.NodeID]chan struct{}),
		incarnation: make(map[packet.NodeID]int64),
		linksDown:   make(map[packet.NodeID][][2]packet.NodeID),
	}
	if cfg.Obs != nil {
		n.obsDelivered = cfg.Obs.Counter("netsim.delivered")
		n.obsRadioLost = cfg.Obs.Counter("netsim.radio_lost")
		n.obsQueueFullBlocks = cfg.Obs.Counter("netsim.queue_full_blocks")
		n.obsQueueDropNewest = cfg.Obs.Counter("netsim.queue_drop_newest")
		n.obsQueueDropOldest = cfg.Obs.Counter("netsim.queue_drop_oldest")
		n.obsBlacklistRefused = cfg.Obs.Counter("netsim.blacklist_refused")
		n.obsNodeDropped = cfg.Obs.Counter("netsim.node_dropped")
		n.obsFault.bind(cfg.Obs)
	}
	for _, id := range cfg.Topo.Nodes() {
		n.inbox[id] = make(chan transmission, cfg.QueueLen)
		n.nodes[id] = n.newNode(id)
	}
	for _, id := range cfg.Topo.Nodes() {
		n.spawnNode(id, n.nodes[id])
	}
	n.wg.Add(1)
	go n.runSink()
	return n, nil
}

// newNode assembles one forwarder's stack. Restart rebuilds the node from
// the same configuration — state (suppressor history, counters, energy
// ledger) starts from zero, exactly as a rebooted mote's RAM would.
func (n *Network) newNode(id packet.NodeID) *node.Node {
	return node.New(node.Config{
		ID:                 id,
		Key:                n.cfg.Keys.Key(id),
		Scheme:             n.cfg.Scheme,
		SuppressorCapacity: n.cfg.SuppressorCapacity,
		FilterDetectProb:   n.cfg.FilterDetectProb,
		Blacklisted:        n.cfg.Blacklisted,
		Mole:               n.cfg.Moles[id],
		Env:                n.cfg.Env,
		Energy:             n.cfg.Energy,
	})
}

// spawnNode starts one incarnation of a node goroutine. Callers hold
// faultMu (or are Start, before any goroutine exists).
func (n *Network) spawnNode(id packet.NodeID, stack *node.Node) {
	kill := make(chan struct{})
	done := make(chan struct{})
	n.nodeKill[id] = kill
	n.nodeDone[id] = done
	inc := n.incarnation[id]
	n.wg.Add(1)
	go n.runNode(id, stack, inc, kill, done)
}

// runNode is one forwarder's event loop: receive, run the stack, pass on.
// kill ends this incarnation only (crash); stop ends the network.
func (n *Network) runNode(id packet.NodeID, stack *node.Node, inc int64, kill, done chan struct{}) {
	defer n.wg.Done()
	defer close(done)
	seed := n.cfg.Seed ^ (int64(id) * 0x9E3779B97F4A7C)
	if inc > 0 {
		seed ^= inc * incarnationSeedSalt
	}
	rng := rand.New(rand.NewSource(seed))
	for {
		select {
		case <-n.stop:
			return
		case <-kill:
			return
		case tx := <-n.inbox[id]:
			bogus := n.cfg.BogusReport != nil && n.cfg.BogusReport(tx.msg.Report)
			out, outcome := stack.Handle(tx.from, tx.msg, bogus, rng)
			if outcome != node.Forwarded {
				n.noteDrop(n.obsNodeDropped)
				continue
			}
			n.send(id, out, rng, kill)
		}
	}
}

// runSink folds delivered packets through the sink host for the life of
// the network. While the host is down (a sink crash) it still dequeues,
// and every frame it dequeues dies with the crashed sink.
func (n *Network) runSink() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case tx := <-n.sinkCh:
			// The sink also refuses traffic handed over by a quarantined
			// neighbor.
			refused := n.cfg.Blacklisted != nil && n.cfg.Blacklisted(tx.from)
			folded := !refused && n.sink.Fold(tx.msg, tx.epoch, nil)
			// The frame has left: its pin goes back before the outcome is
			// published, so a settled network holds no pin.
			n.epochs.Done(tx.epoch, 1)
			switch {
			case refused:
				n.noteDrop(n.obsBlacklistRefused)
			case !folded:
				n.noteDrop(n.obsFault.sinkDropped)
			default:
				n.obsDelivered.Inc()
				n.sink.Publish(1)
			}
		}
	}
}

// noteDrop accounts one terminal packet drop: the reason counter, the
// settledness ledger, and a progress broadcast.
func (n *Network) noteDrop(c *obs.Counter) {
	c.Inc()
	n.mu.Lock()
	n.dropped++
	n.mu.Unlock()
	n.sink.Publish(0)
}

// routeOf returns id's current next hop toward the sink, honoring route
// repair; ok is false while faults leave id orphaned.
func (n *Network) routeOf(id packet.NodeID) (packet.NodeID, bool) {
	n.stateMu.RLock()
	defer n.stateMu.RUnlock()
	if !n.routes.HasRoute(id) {
		return 0, false
	}
	return n.routes.Parent(id), true
}

// hopDown reports whether the receiver of a transmission to hop is dead —
// a crashed node, or the sink while it is down.
func (n *Network) hopDown(hop packet.NodeID) bool {
	if hop == packet.SinkID {
		return n.sink.Down()
	}
	n.stateMu.RLock()
	defer n.stateMu.RUnlock()
	return n.nodeDown[hop]
}

// deliverResult classifies what enqueueing a transmission did.
type deliverResult int

const (
	// queued: the frame is in the receiver's inbox (or the sink's).
	queued deliverResult = iota
	// droppedAccounted: a policy or fault discarded the frame and the drop
	// was counted.
	droppedAccounted
	// abortedStop: the network stopped while a blocking or evicting
	// enqueue waited; the frame is unaccounted because nothing will settle
	// anymore.
	abortedStop
)

// send transmits msg from one node toward its current next hop, subject to
// loss, route repair and receiver liveness. abort unblocks a blocking
// enqueue when the sender's own incarnation is crashed.
func (n *Network) send(from packet.NodeID, msg packet.Message, rng *rand.Rand, abort <-chan struct{}) {
	if n.cfg.LossProb > 0 && rng.Float64() < n.cfg.LossProb {
		n.noteDrop(n.obsRadioLost)
		return // lost on the air
	}
	hop, ok := n.routeOf(from)
	if !ok {
		n.noteDrop(n.obsFault.orphanDropped)
		return // no route to the sink until repair reconnects us
	}
	n.deliver(transmission{from: from, msg: msg}, hop, abort)
}

// deliver enqueues tx on hop's inbox (or the sink channel), applying the
// receiver-down check and, through queue.Offer, the configured
// queue-overflow policy. The inject path and the forwarding path share
// this, so their backpressure accounting is identical by construction.
func (n *Network) deliver(tx transmission, hop packet.NodeID, abort <-chan struct{}) deliverResult {
	if n.hopDown(hop) {
		n.noteDrop(n.obsFault.droppedToDown)
		return droppedAccounted
	}
	ch, evict := n.inbox[hop], n.evict
	if hop == packet.SinkID {
		// Stamp the topology epoch current at sink arrival: resolution
		// must replay the routing tree the packet was forwarded under,
		// and this hop is where "arrival" happens. The stamp pins the
		// epoch until the frame leaves, here if it is not admitted.
		tx.epoch = n.epochs.Stamp()
		ch, evict = n.sinkCh, n.evictFromSink
	}
	out := queue.Offer(ch, tx, n.cfg.QueuePolicy, n.stop, abort, n.obsQueueFullBlocks.Inc, evict)
	if out != queue.Admitted && hop == packet.SinkID {
		n.epochs.Done(tx.epoch, 1)
	}
	switch out {
	case queue.Admitted:
		return queued
	case queue.Refused:
		n.noteDrop(n.obsQueueDropNewest)
		return droppedAccounted
	case queue.Aborted:
		// The sender crashed mid-transmit; the frame dies with it.
		n.noteDrop(n.obsFault.sendAborted)
		return droppedAccounted
	}
	return abortedStop
}

// evict accounts a frame DropOldest pushed out of a full inbox.
func (n *Network) evict(transmission) { n.noteDrop(n.obsQueueDropOldest) }

// evictFromSink is evict for the sink channel, whose frames carry an
// epoch pin: it hands the pin back before accounting the drop.
func (n *Network) evictFromSink(tx transmission) {
	n.epochs.Done(tx.epoch, 1)
	n.evict(tx)
}

// Inject transmits msg from src toward the sink. The source's own radio
// hop is as lossy as any other link: the loss decision draws from a
// dedicated injection RNG (node RNGs are goroutine-private), and a lost,
// orphaned or policy-dropped packet returns nil — radio-level loss is not
// an injection error. The source's transmit energy is charged to its node
// stack exactly as forwarders are charged in node.Handle. It is safe from
// any goroutine.
func (n *Network) Inject(src packet.NodeID, msg packet.Message) error {
	if n.closed() {
		return errClosed
	}
	n.mu.Lock()
	n.injected++
	n.mu.Unlock()
	n.stateMu.RLock()
	stack := n.nodes[src]
	n.stateMu.RUnlock()
	if stack != nil {
		stack.NoteInjectTx(msg)
	}
	if n.cfg.LossProb > 0 {
		n.injectMu.Lock()
		lost := n.injectRng.Float64() < n.cfg.LossProb
		n.injectMu.Unlock()
		if lost {
			n.noteDrop(n.obsRadioLost)
			return nil // lost on the air
		}
	}
	hop, ok := n.routeOf(src)
	if !ok {
		n.noteDrop(n.obsFault.orphanDropped)
		return nil // the source is orphaned until route repair reconnects it
	}
	if n.deliver(transmission{from: src, msg: msg}, hop, nil) == abortedStop {
		return errClosed
	}
	return nil
}

// Delivered returns how many packets the sink has processed.
func (n *Network) Delivered() int { return n.sink.Delivered() }

// Dropped returns how many injected packets terminated without reaching
// the sink: radio loss, queue-policy drops, fault drops, stack drops
// (duplicate/filter/quarantine/mole) and sink refusals.
func (n *Network) Dropped() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dropped
}

// ledger returns the settled count — packets delivered or dropped with
// an accounted reason — and the accepted injections.
func (n *Network) ledger() (settled, injected int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sink.Delivered() + n.dropped, n.injected
}

// Verdict returns the sink's current traceback conclusion.
func (n *Network) Verdict() sink.Verdict { return n.sink.Verdict() }

// NodeStats returns a node's forwarding counters. Call after Close for a
// consistent snapshot, or accept approximate live values. A restarted
// node's counters restart with it (state is rebuilt from zero).
func (n *Network) NodeStats(id packet.NodeID) node.Stats {
	n.stateMu.RLock()
	st := n.nodes[id]
	n.stateMu.RUnlock()
	if st == nil {
		return node.Stats{}
	}
	return st.Stats()
}

// WaitDelivered blocks until the sink has processed at least want packets
// or the timeout elapses. It parks on the sink's progress broadcast, so
// waiting consumes no CPU; the only wall-clock dependence is the timeout
// itself.
func (n *Network) WaitDelivered(want int, timeout time.Duration) error {
	//pnmlint:allow wallclock real timeout while live goroutines deliver
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	if n.sink.Await(func(got int) bool { return got >= want }, timer.C, n.stop) {
		return nil
	}
	if n.closed() {
		return fmt.Errorf("netsim: network closed after %d of %d deliveries", n.Delivered(), want)
	}
	return fmt.Errorf("netsim: delivered %d of %d before timeout", n.Delivered(), want)
}

// WaitSettled blocks until every packet injected so far has terminated —
// delivered at the sink, or dropped with an accounted reason — or the
// timeout elapses. After a nil return the network is quiescent for the
// current traffic, which is what makes boundary-applied fault plans and
// the fault benchmarks exactly reproducible.
func (n *Network) WaitSettled(timeout time.Duration) error {
	//pnmlint:allow wallclock real timeout while live goroutines settle
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	if n.sink.Await(func(delivered int) bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return delivered+n.dropped >= n.injected
	}, timer.C, n.stop) {
		return nil
	}
	settled, injected := n.ledger()
	if n.closed() {
		return fmt.Errorf("netsim: network closed with %d of %d packets settled", settled, injected)
	}
	return fmt.Errorf("netsim: %d of %d packets settled before timeout", settled, injected)
}

// closed reports whether Close has begun.
func (n *Network) closed() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// Close stops every goroutine and waits for them to exit. Safe to call
// more than once.
func (n *Network) Close() {
	n.closeOnce.Do(func() {
		close(n.stop)
	})
	n.wg.Wait()
}
