package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"pnm/internal/energy"
	"pnm/internal/fault"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/node"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// waitCounter polls a registry counter until it reaches want or the
// deadline passes.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := reg.Counter(name).Value(); got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d before deadline", name, reg.Counter(name).Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// stallGate builds a Blacklisted callback that parks the caller on a gate
// channel (so a receiver goroutine can be deliberately wedged with a full
// inbox behind it), an entered channel that reports each park, and a
// release function, safe to call more than once.
func stallGate() (blacklisted func(packet.NodeID) bool, entered chan struct{}, release func()) {
	gate := make(chan struct{})
	entered = make(chan struct{}, 16)
	var once sync.Once
	return func(packet.NodeID) bool {
			entered <- struct{}{}
			<-gate
			return false
		}, entered, func() {
			once.Do(func() { close(gate) })
		}
}

// TestInjectBackpressureMatchesSend pins the bug this PR fixes: Inject
// used to bypass both the netsim.queue_full_blocks counter and the
// block-until-space/abort-on-stop split that send has always had. The
// receiver (here: the sink, wedged inside the Blacklisted callback) has a
// deliberately full queue; the third Inject must count exactly one stall,
// block, and abort with an error when the network closes underneath it.
func TestInjectBackpressureMatchesSend(t *testing.T) {
	reg := obs.New()
	blacklisted, entered, release := stallGate()
	net, _, _ := startChain(t, 1, Config{
		Scheme:      marking.Nested{},
		Seed:        21,
		QueueLen:    1,
		Blacklisted: blacklisted,
		Obs:         reg,
	})
	t.Cleanup(release) // runs before startChain's net.Close: unwedges the sink

	msg := func(i int) packet.Message {
		return packet.Message{Report: packet.Report{Seq: uint32(i)}}
	}
	// First frame: dequeued by the sink, which parks in Blacklisted.
	if err := net.Inject(1, msg(0)); err != nil {
		t.Fatal(err)
	}
	<-entered // the sink holds frame 0; the queue itself is empty
	// Second frame: fills the queue (QueueLen 1) without blocking.
	if err := net.Inject(1, msg(1)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("netsim.queue_full_blocks").Value(); got != 0 {
		t.Fatalf("queue_full_blocks = %d before the queue was full", got)
	}
	// Third frame: queue full. Inject must count the stall and block.
	errCh := make(chan error, 1)
	go func() { errCh <- net.Inject(1, msg(2)) }()
	waitCounter(t, reg, "netsim.queue_full_blocks", 1)
	select {
	case err := <-errCh:
		t.Fatalf("Inject returned %v while the queue was still full", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Closing the network must abort the blocked Inject with an error,
	// exactly as send's stop clause abandons a blocked transmission.
	go net.Close()
	if err := <-errCh; err == nil {
		t.Fatal("blocked Inject returned nil after Close")
	}
	release()
}

// TestQueuePolicyDropNewest: with a wedged receiver and a full queue, the
// arriving frame is discarded, counted, and Inject never blocks.
func TestQueuePolicyDropNewest(t *testing.T) {
	reg := obs.New()
	blacklisted, entered, release := stallGate()
	net, _, _ := startChain(t, 1, Config{
		Scheme:      marking.Nested{},
		Seed:        22,
		QueueLen:    1,
		QueuePolicy: QueueDropNewest,
		Blacklisted: blacklisted,
		Obs:         reg,
	})
	t.Cleanup(release)

	for i := 0; i < 3; i++ {
		if err := net.Inject(1, packet.Message{Report: packet.Report{Seq: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-entered // the sink holds frame 0 before the queue fills
		}
	}
	// Frame 0 is held by the wedged sink, frame 1 queued, frame 2 dropped.
	waitCounter(t, reg, "netsim.queue_drop_newest", 1)
	release()
	if err := net.WaitSettled(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := net.Delivered(); got != 2 {
		t.Fatalf("delivered = %d, want 2 (newest dropped)", got)
	}
	if got := reg.Counter("netsim.queue_full_blocks").Value(); got != 0 {
		t.Fatalf("queue_full_blocks = %d under a drop policy", got)
	}
}

// TestQueuePolicyDropOldest: the queued frame is evicted to admit the new
// one, so the newest survives.
func TestQueuePolicyDropOldest(t *testing.T) {
	reg := obs.New()
	blacklisted, entered, release := stallGate()
	net, _, _ := startChain(t, 1, Config{
		Scheme:      marking.Nested{},
		Seed:        23,
		QueueLen:    1,
		QueuePolicy: QueueDropOldest,
		Blacklisted: blacklisted,
		Obs:         reg,
	})
	t.Cleanup(release)

	for i := 0; i < 3; i++ {
		if err := net.Inject(1, packet.Message{Report: packet.Report{Seq: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-entered // the sink holds frame 0 before the queue fills
		}
	}
	// Frame 0 is held by the wedged sink; frame 2 evicts frame 1.
	waitCounter(t, reg, "netsim.queue_drop_oldest", 1)
	release()
	if err := net.WaitSettled(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := net.Delivered(); got != 2 {
		t.Fatalf("delivered = %d, want 2 (oldest dropped)", got)
	}
}

// TestInjectEnergyMatchesSync drives identical traffic through the live
// network and through reference node stacks stepped synchronously: every
// node's energy ledger — including the injecting source's transmit spend,
// which Inject used to lose entirely — must agree to the bit.
func TestInjectEnergyMatchesSync(t *testing.T) {
	const n = 5
	scheme := marking.Nested{} // deterministic: every node marks, MACs are pure
	model := energy.Mica2()
	modelp := &model
	net, topo, keys := startChain(t, n, Config{Scheme: scheme, Seed: 31, Energy: modelp})

	ref := make(map[packet.NodeID]*node.Node, n)
	for _, id := range topo.Nodes() {
		ref[id] = node.New(node.Config{ID: id, Key: keys.Key(id), Scheme: scheme, Energy: modelp})
	}
	rng := rand.New(rand.NewSource(32)) // Nested ignores it; Handle requires one

	const packets = 40
	for i := 0; i < packets; i++ {
		msg := packet.Message{Report: packet.Report{Event: 0x77, Seq: uint32(i)}}
		if err := net.Inject(n, msg); err != nil {
			t.Fatal(err)
		}
		// Reference walk: source transmit, then each forwarder down the
		// chain receives and re-marks, exactly as the live goroutines do.
		ref[n].NoteInjectTx(msg)
		prev := packet.NodeID(n)
		for id := packet.NodeID(n - 1); id >= 1; id-- {
			out, outcome := ref[id].Handle(prev, msg, false, rng)
			if outcome != node.Forwarded {
				t.Fatalf("reference stack dropped packet %d at node %d", i, id)
			}
			msg, prev = out, id
		}
	}
	if err := net.WaitSettled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	net.Close()
	for _, id := range topo.Nodes() {
		live, want := net.NodeStats(id), ref[id].Stats()
		if live.EnergySpentJ != want.EnergySpentJ {
			t.Fatalf("node %d: live energy %.9g J != sync %.9g J (diff %g)",
				id, live.EnergySpentJ, want.EnergySpentJ,
				math.Abs(live.EnergySpentJ-want.EnergySpentJ))
		}
		if live.Injected != want.Injected || live.Forwarded != want.Forwarded {
			t.Fatalf("node %d: counters %+v, want %+v", id, live, want)
		}
	}
}

// gridConfig is the fault tests' shared substrate: a 4x4 grid (15
// forwarders plus the corner sink) with diagonal radio range, so every
// interior node has alternate parents to re-home through.
func startGrid(t *testing.T, cfg Config) (*Network, *topology.Network, *mac.KeyStore) {
	t.Helper()
	topo, err := topology.NewGrid(topology.GridConfig{Width: 4, Height: 4, Spacing: 1, RadioRange: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	keys := mac.NewKeyStore([]byte("netsim-fault-test"))
	cfg.Topo = topo
	cfg.Keys = keys
	net, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	return net, topo, keys
}

// TestNodeCrashReroutesAndRestartRejoins: kill a depth-1 grid node that
// other nodes route through; traffic re-homes around the corpse and keeps
// delivering. Restart it; the original routes come back and the node
// forwards again with rebuilt state.
func TestNodeCrashReroutesAndRestartRejoins(t *testing.T) {
	reg := obs.New()
	scheme := marking.Nested{}
	net, topo, _ := startGrid(t, Config{Scheme: scheme, Seed: 41, Obs: reg})

	// Pick a source whose static route passes through a crashable hop.
	src := packet.NodeID(15) // far corner of the 4x4 grid
	victim := topo.Parent(topo.Parent(src))
	if victim == packet.SinkID || topo.Depth(victim) != 1 {
		// The grid is deterministic, so this is a test-bug guard, not a
		// runtime condition.
		t.Fatalf("victim %d at depth %d, want a depth-1 hop", victim, topo.Depth(victim))
	}

	inject := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := net.Inject(src, packet.Message{Report: packet.Report{Event: 0x99, Seq: uint32(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.WaitSettled(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	inject(0, 20)
	if got := net.Delivered(); got != 20 {
		t.Fatalf("pre-crash delivered = %d, want 20", got)
	}
	net.ApplyFault(fault.Event{Kind: fault.NodeCrash, Node: victim})
	if reg.Counter("netsim.fault.node_crashes").Value() != 1 {
		t.Fatal("crash not counted")
	}
	inject(20, 40)
	if got := net.Delivered(); got != 40 {
		t.Fatalf("post-crash delivered = %d, want 40 (subtree should re-home)", got)
	}
	preCrash := net.NodeStats(victim).Forwarded
	if preCrash == 0 {
		t.Fatal("victim forwarded nothing before the crash; it was not on the route")
	}
	if st := net.NodeStats(victim); st.Forwarded != preCrash {
		t.Fatalf("dead node forwarded %d > %d while down", st.Forwarded, preCrash)
	}
	net.ApplyFault(fault.Event{Kind: fault.NodeRestart, Node: victim})
	// Restart rebuilds the stack from zero, as a rebooted mote's RAM would.
	if st := net.NodeStats(victim); st.Forwarded != 0 {
		t.Fatalf("restarted node kept %d forwarded from its previous life", st.Forwarded)
	}
	net.ApplyFault(fault.Event{Kind: fault.NodeRestart, Node: victim}) // idempotent
	if got := reg.Counter("netsim.fault.node_restarts").Value(); got != 1 {
		t.Fatalf("node_restarts = %d, want 1 (restart must be idempotent)", got)
	}
	inject(40, 60)
	if got := net.Delivered(); got != 60 {
		t.Fatalf("post-restart delivered = %d, want 60", got)
	}
	if st := net.NodeStats(victim); st.Forwarded == 0 {
		t.Fatal("restarted node never forwarded; routes did not come back")
	}
}

// TestLinkChurnRehomesSubtree: cutting a node's parent link re-homes it
// through an alternate neighbor; link-up restores the original tree.
func TestLinkChurnRehomesSubtree(t *testing.T) {
	reg := obs.New()
	net, topo, _ := startGrid(t, Config{Scheme: marking.Nested{}, Seed: 43, Obs: reg})
	src := packet.NodeID(15)
	cut := topo.Parent(src)

	inject := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := net.Inject(src, packet.Message{Report: packet.Report{Event: 0x9A, Seq: uint32(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.WaitSettled(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	inject(0, 10)
	net.ApplyFault(fault.Event{Kind: fault.LinkDown, Node: cut})
	if reg.Counter("netsim.fault.link_down").Value() != 1 {
		t.Fatal("link_down not counted")
	}
	inject(10, 20)
	net.ApplyFault(fault.Event{Kind: fault.LinkUp, Node: cut})
	inject(20, 30)
	if got := net.Delivered(); got != 30 {
		t.Fatalf("delivered = %d, want 30 across link churn", got)
	}
	if reg.Counter("netsim.fault.orphan_dropped").Value() != 0 {
		t.Fatal("grid link cut orphaned a node; expected an alternate parent")
	}
}

// TestCrashOrphansChainTail: in a chain there is no alternate route, so
// crashing a middle node orphans everything behind it — injected traffic
// must terminate as accounted orphan drops, not hang.
func TestCrashOrphansChainTail(t *testing.T) {
	reg := obs.New()
	net, _, _ := startChain(t, 5, Config{Scheme: marking.Nested{}, Seed: 44, Obs: reg})
	net.ApplyFault(fault.Event{Kind: fault.NodeCrash, Node: 3})
	const packets = 10
	for i := 0; i < packets; i++ {
		if err := net.Inject(5, packet.Message{Report: packet.Report{Seq: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.WaitSettled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := net.Delivered(); got != 0 {
		t.Fatalf("delivered = %d through a severed chain", got)
	}
	if got := reg.Counter("netsim.fault.orphan_dropped").Value(); got != packets {
		t.Fatalf("orphan_dropped = %d, want %d", got, packets)
	}
	// Recovery: restart re-attaches the tail.
	net.ApplyFault(fault.Event{Kind: fault.NodeRestart, Node: 3})
	for i := 0; i < packets; i++ {
		if err := net.Inject(5, packet.Message{Report: packet.Report{Seq: uint32(100 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.WaitSettled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := net.Delivered(); got != packets {
		t.Fatalf("post-restart delivered = %d, want %d", got, packets)
	}
}

// TestSinkCrashRestorePreservesTracebackState: crash the sink mid-run and
// restore it from the PNM2 checkpoint — the packet count, the order
// matrix (via the verdict) and continued convergence must all survive.
func TestSinkCrashRestorePreservesTracebackState(t *testing.T) {
	const n = 11
	scheme := marking.PNM{P: 3 / float64(n-1)}
	reg := obs.New()
	net, _, keys := startChain(t, n, Config{Scheme: scheme, Seed: 45, Obs: reg})
	src := &mole.Source{ID: n, Base: packet.Report{Event: 0xAB}, Behavior: mole.MarkNever}
	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{n: keys.Key(n)}}
	rng := rand.New(rand.NewSource(46))

	inject := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			if err := net.Inject(n, src.Next(env, rng)); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.WaitSettled(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// folded checks the delivered count and the tracker's lifetime fold
	// counter, which a restore must continue rather than rewind.
	folded := func(want int) {
		t.Helper()
		if got := net.Delivered(); got != want {
			t.Fatalf("delivered = %d, want %d", got, want)
		}
		if got := reg.Counter("sink.tracker.packets").Value(); got != uint64(want) {
			t.Fatalf("sink.tracker.packets = %d, want %d", got, want)
		}
	}

	inject(150)
	before := net.Verdict()
	folded(150)
	net.ApplyFault(fault.Event{Kind: fault.SinkCrash})
	// Traffic while the sink is down terminates as accounted drops.
	inject(10)
	if got := reg.Counter("netsim.fault.dropped_to_down").Value(); got != 10 {
		t.Fatalf("dropped_to_down = %d, want 10 while the sink is down", got)
	}
	net.ApplyFault(fault.Event{Kind: fault.SinkRestore})
	folded(150)
	if got := net.Verdict(); !reflect.DeepEqual(got, before) {
		t.Fatalf("restored verdict %+v != pre-crash %+v", got, before)
	}
	// The restored sink keeps converging on the same evidence.
	inject(150)
	v := net.Verdict()
	if !v.Identified || v.Stop != n-1 || !v.SuspectsContain(n) {
		t.Fatalf("post-restore verdict = %+v, want identified at V%d", v, n-1)
	}
	folded(300)
}

// runPlannedChain drives a fixed traffic schedule with fault-plan events
// applied at exact settled-packet boundaries — the reproducible way to
// run a plan — and returns the final verdict and delivered count.
func runPlannedChain(t *testing.T, plan *fault.Plan) (sink.Verdict, int) {
	t.Helper()
	const n = 11
	scheme := marking.PNM{P: 3 / float64(n-1)}
	net, _, keys := startChain(t, n, Config{Scheme: scheme, Seed: 47})
	src := &mole.Source{ID: n, Base: packet.Report{Event: 0xEE, Seq: 1}, Behavior: mole.MarkNever}
	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{n: keys.Key(n)}}
	rng := rand.New(rand.NewSource(48))

	const total = 400
	injected := 0
	next := 0
	for injected < total {
		target := total
		if next < len(plan.Events) && plan.Events[next].At < target {
			target = plan.Events[next].At
		}
		for ; injected < target; injected++ {
			if err := net.Inject(n, src.Next(env, rng)); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.WaitSettled(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		next = net.ApplyDue(plan, next)
	}
	if err := net.WaitSettled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return net.Verdict(), net.Delivered()
}

// TestFaultPlanDeterministicAcrossRuns: the same boundary-applied fault
// plan must produce byte-identical verdicts and delivered counts on a
// repeat run — faults applied at quiescent points keep the simulator
// reproducible.
func TestFaultPlanDeterministicAcrossRuns(t *testing.T) {
	plan := &fault.Plan{Events: []fault.Event{
		{At: 50, Kind: fault.NodeCrash, Node: 5},
		{At: 100, Kind: fault.NodeRestart, Node: 5},
		{At: 150, Kind: fault.SinkCrash},
		{At: 200, Kind: fault.SinkRestore},
	}}
	v1, d1 := runPlannedChain(t, plan)
	v2, d2 := runPlannedChain(t, plan)
	if !reflect.DeepEqual(v1, v2) || d1 != d2 {
		t.Fatalf("repeat run diverged: %+v/%d vs %+v/%d", v1, d1, v2, d2)
	}
}

// TestChaosUnderFaults hammers Inject/WaitDelivered from many goroutines
// while a second goroutine applies a seeded fault plan through ApplyDue
// mid-flight — run with -race in CI, so the detector sees every lock
// order and channel handoff at once. The plan fits inside the traffic,
// and whatever is still pending when the injectors stop is applied after
// the network settles, so every event fires exactly once.
func TestChaosUnderFaults(t *testing.T) {
	packets := 400
	if testing.Short() {
		packets = 80
	}
	topo, err := topology.NewGrid(topology.GridConfig{Width: 4, Height: 4, Spacing: 1, RadioRange: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	// Five event pairs spaced packets/11 apart: the last milestone lands
	// at or below the packet count.
	plan := fault.Generate(51, topo, fault.PlanConfig{
		NodeChurn: 2, LinkChurn: 2, SinkCrashes: 1,
		Start: packets / 11, Step: packets / 11,
	})
	reg := obs.New()
	keys := mac.NewKeyStore([]byte("netsim-chaos"))
	net, err := Start(Config{
		Topo: topo, Keys: keys,
		Scheme:      marking.PNM{P: 0.4},
		Seed:        52,
		LossProb:    0.05,
		QueueLen:    4,
		QueuePolicy: QueueDropOldest,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	trafficDone := make(chan struct{})
	applierDone := make(chan int)
	go func() {
		next := 0
		for {
			next = net.ApplyDue(plan, next)
			select {
			case <-trafficDone:
				applierDone <- next
				return
			default:
			}
			// Park on the progress broadcast; the timeout covers a sink
			// outage, when only drops make progress.
			_ = net.WaitDelivered(net.Delivered()+1, 5*time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	sources := []packet.NodeID{15, 12, 10, 6}
	for w, src := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < packets/len(sources); i++ {
				msg := packet.Message{Report: packet.Report{Event: 0xC0, Seq: uint32(w<<16 | i)}}
				if err := net.Inject(src, msg); err != nil {
					t.Error(err)
					return
				}
				if i%16 == 0 {
					_ = net.WaitDelivered(i, 10*time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	close(trafficDone)
	next := <-applierDone
	if err := net.WaitSettled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if next = net.ApplyDue(plan, next); next != len(plan.Events) {
		t.Fatalf("%d of %d plan events applied after %d packets settled", next, len(plan.Events), packets)
	}
	_ = net.Verdict()
	for name, want := range map[string]uint64{
		"netsim.fault.node_crashes":  2,
		"netsim.fault.link_down":     2,
		"netsim.fault.sink_crashes":  1,
		"netsim.fault.sink_restores": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if net.Delivered()+net.Dropped() != packets {
		t.Fatalf("delivered %d + dropped %d != injected %d", net.Delivered(), net.Dropped(), packets)
	}
}
