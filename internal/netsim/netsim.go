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

// QueuePolicy selects what a transmission does when the receiver's inbox
// is full. It is the shared queue.Policy vocabulary, so simulator configs
// and the live transport server (internal/transport) speak the same
// backpressure language.
type QueuePolicy = queue.Policy

// The queue-overflow policies, re-exported under their historical names.
const (
	// QueueBlock counts the stall, then blocks until the receiver drains —
	// lossless backpressure, the historical behavior.
	QueueBlock = queue.Block
	// QueueDropNewest discards the arriving frame (tail drop).
	QueueDropNewest = queue.DropNewest
	// QueueDropOldest evicts the oldest queued frame to admit the new one.
	QueueDropOldest = queue.DropOldest
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
	QueuePolicy QueuePolicy

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

	// newVerifier builds one verifier chain (resolver + scheme verifier).
	// The sink and every sink restore build their own instance through
	// it — verifiers are single-goroutine.
	newVerifier func() sink.Verifier

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
	sinkDown bool
	routes   *topology.Network

	// epochs is the append-only topology history shared with every
	// topology resolver; internally synchronized, so it needs no lock
	// here. Route repairs append under faultMu; packets read Current at
	// sink arrival.
	epochs *topology.EpochSet

	// faultMu serializes fault application (fault.go) and guards the
	// bookkeeping only faults touch: kill/done channels, incarnation
	// counts, downed links, and the sink checkpoint.
	faultMu     sync.Mutex
	nodeKill    map[packet.NodeID]chan struct{}
	nodeDone    map[packet.NodeID]chan struct{}
	incarnation map[packet.NodeID]int64
	linksDown   map[packet.NodeID][][2]packet.NodeID
	sinkKill    chan struct{}
	sinkDone    chan struct{}
	sinkCkpt    []byte

	mu        sync.Mutex
	tracker   *sink.Tracker // pnmlint:guarded-by mu
	delivered int
	injected  int
	dropped   int
	// deliveredCh is closed and replaced under mu on every delivery or
	// accounted drop, so WaitDelivered and WaitSettled can block instead of
	// polling.
	deliveredCh chan struct{}

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
	// epochs is the append-only topology history: epoch 0 is the base
	// tree, every route repair appends the repaired snapshot
	// (recomputeRoutesLocked). Packets are stamped with the epoch current
	// at sink arrival and topology-restricted resolvers walk that epoch's
	// tree — the stale-resolver fix.
	epochs := topology.NewEpochSet(cfg.Topo)
	// Every sink incarnation — the first and each post-crash restore —
	// builds its own verifier chain through this factory; only the
	// KeyStore, the epoch set and obs counters are shared.
	newVerifier := func() (sink.Verifier, error) {
		r := sink.NewTopologyResolverEpochs(cfg.Keys, epochs)
		v, err := sink.NewVerifier(cfg.Scheme, cfg.Keys, cfg.Topo.NumNodes(), r)
		if err != nil {
			return nil, err
		}
		if cfg.Obs != nil {
			if in, ok := v.(sink.Instrumentable); ok {
				in.Instrument(cfg.Obs)
			}
		}
		return v, nil
	}
	verifier, err := newVerifier()
	if err != nil {
		return nil, err
	}
	// Build the guarded tracker before the Network value exists: once the
	// &Network{} literal publishes it to the goroutines below, every touch
	// of it must hold mu.
	tracker := sink.NewTracker(verifier, cfg.Topo)
	if cfg.Obs != nil {
		tracker.Instrument(cfg.Obs)
	}

	n := &Network{
		cfg:         cfg,
		nodes:       make(map[packet.NodeID]*node.Node, cfg.Topo.NumNodes()),
		inbox:       make(map[packet.NodeID]chan transmission, cfg.Topo.NumNodes()),
		sinkCh:      make(chan transmission, cfg.QueueLen),
		stop:        make(chan struct{}),
		injectRng:   rand.New(rand.NewSource(cfg.Seed ^ injectSeedSalt)),
		deliveredCh: make(chan struct{}),
		routes:      cfg.Topo,
		epochs:      epochs,
		nodeDown:    make(map[packet.NodeID]bool),
		nodeKill:    make(map[packet.NodeID]chan struct{}),
		nodeDone:    make(map[packet.NodeID]chan struct{}),
		incarnation: make(map[packet.NodeID]int64),
		linksDown:   make(map[packet.NodeID][][2]packet.NodeID),
		tracker:     tracker,
	}
	// The construction above already validated the verifier chain, so the
	// factory's error path is unreachable from here on.
	n.newVerifier = func() sink.Verifier {
		v, err := newVerifier()
		if err != nil {
			panic(fmt.Sprintf("netsim: verifier factory: %v", err))
		}
		return v
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
	n.spawnSink()
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

// spawnSink starts one incarnation of the sink goroutine. Callers hold
// faultMu (or are Start).
func (n *Network) spawnSink() {
	kill := make(chan struct{})
	done := make(chan struct{})
	n.sinkKill = kill
	n.sinkDone = done
	n.wg.Add(1)
	go n.runSink(kill, done)
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

// runSink folds delivered packets into the tracker. kill ends this
// incarnation only (sink crash); stop ends the network.
func (n *Network) runSink(kill, done chan struct{}) {
	defer n.wg.Done()
	defer close(done)
	for {
		select {
		case <-n.stop:
			return
		case <-kill:
			return
		case tx := <-n.sinkCh:
			// The sink also refuses traffic handed over by a quarantined
			// neighbor.
			if n.cfg.Blacklisted != nil && n.cfg.Blacklisted(tx.from) {
				n.noteDrop(n.obsBlacklistRefused)
				continue
			}
			n.mu.Lock()
			n.tracker.Observe(tx.msg, tx.epoch)
			n.delivered++
			n.obsDelivered.Inc()
			n.broadcastLocked()
			n.mu.Unlock()
		}
	}
}

// broadcastLocked wakes every goroutine parked on the progress channel.
// Callers hold mu.
func (n *Network) broadcastLocked() {
	close(n.deliveredCh)
	n.deliveredCh = make(chan struct{})
}

// noteDrop accounts one terminal packet drop: the reason counter, the
// settledness ledger, and a progress broadcast.
func (n *Network) noteDrop(c *obs.Counter) {
	c.Inc()
	n.mu.Lock()
	n.dropped++
	n.broadcastLocked()
	n.mu.Unlock()
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
	n.stateMu.RLock()
	defer n.stateMu.RUnlock()
	if hop == packet.SinkID {
		return n.sinkDown
	}
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
	// abortedStop: the network stopped while a blocking enqueue waited;
	// the frame is unaccounted because nothing will settle anymore.
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
// receiver-down check and the configured queue-overflow policy. The inject
// path and the forwarding path share this, so their backpressure
// accounting is identical by construction.
func (n *Network) deliver(tx transmission, hop packet.NodeID, abort <-chan struct{}) deliverResult {
	if n.hopDown(hop) {
		n.noteDrop(n.obsFault.droppedToDown)
		return droppedAccounted
	}
	var ch chan transmission
	if hop == packet.SinkID {
		// Stamp the topology epoch current at sink arrival: resolution
		// must replay the routing tree the packet was forwarded under,
		// and this hop is where "arrival" happens.
		tx.epoch = n.epochs.Current().Version
		ch = n.sinkCh
	} else {
		ch = n.inbox[hop]
	}
	select {
	case ch <- tx:
		return queued
	default:
	}
	switch n.cfg.QueuePolicy {
	case QueueDropNewest:
		n.noteDrop(n.obsQueueDropNewest)
		return droppedAccounted
	case QueueDropOldest:
		for {
			select {
			case <-ch:
				n.noteDrop(n.obsQueueDropOldest)
			default:
				// The receiver drained it first; either way there is room
				// now — unless another sender raced in, then evict again.
			}
			select {
			case ch <- tx:
				return queued
			default:
			}
		}
	default: // QueueBlock
		// Receiver's queue is full: count the stall, then block.
		n.obsQueueFullBlocks.Inc()
		select {
		case ch <- tx:
			return queued
		case <-n.stop:
			return abortedStop
		case <-abort:
			// The sender crashed mid-transmit; the frame dies with it.
			n.noteDrop(n.obsFault.sendAborted)
			return droppedAccounted
		}
	}
}

// Inject transmits msg from src toward the sink. The source's own radio
// hop is as lossy as any other link: the loss decision draws from a
// dedicated injection RNG (node RNGs are goroutine-private), and a lost,
// orphaned or policy-dropped packet returns nil — radio-level loss is not
// an injection error. The source's transmit energy is charged to its node
// stack exactly as forwarders are charged in node.Handle. It is safe from
// any goroutine.
func (n *Network) Inject(src packet.NodeID, msg packet.Message) error {
	select {
	case <-n.stop:
		return errClosed
	default:
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
func (n *Network) Delivered() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered
}

// Dropped returns how many injected packets terminated without reaching
// the sink: radio loss, queue-policy drops, fault drops, stack drops
// (duplicate/filter/quarantine/mole) and sink refusals.
func (n *Network) Dropped() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dropped
}

// TrackerPackets returns how many packets the sink's tracker has folded.
// It matches Delivered, across sink crashes too: the PNM2 checkpoint
// carries the count through crash and restore.
func (n *Network) TrackerPackets() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tracker.Packets()
}

// Verdict returns the sink's current traceback conclusion.
func (n *Network) Verdict() sink.Verdict {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tracker.Verdict()
}

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
// or the timeout elapses. It parks on the progress channel the sink
// goroutine broadcasts on, so waiting consumes no CPU; the only
// wall-clock dependence is the timeout itself.
func (n *Network) WaitDelivered(want int, timeout time.Duration) error {
	//pnmlint:allow wallclock real timeout while live goroutines deliver
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		n.mu.Lock()
		got := n.delivered
		ch := n.deliveredCh
		n.mu.Unlock()
		if got >= want {
			return nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("netsim: delivered %d of %d before timeout", n.Delivered(), want)
		case <-n.stop:
			return fmt.Errorf("netsim: network closed after %d of %d deliveries", n.Delivered(), want)
		}
	}
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
	for {
		n.mu.Lock()
		injected := n.injected
		settled := n.delivered + n.dropped
		ch := n.deliveredCh
		n.mu.Unlock()
		if settled >= injected {
			return nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("netsim: %d of %d packets settled before timeout", settled, injected)
		case <-n.stop:
			return fmt.Errorf("netsim: network closed with %d of %d packets settled", settled, injected)
		}
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
