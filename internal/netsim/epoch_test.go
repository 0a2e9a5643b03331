package netsim

import (
	"math/rand"
	"testing"
	"time"

	"pnm/internal/fault"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/queue"
)

// TestTracebackSurvivesMidChainCrash is the end-to-end stale-resolver
// regression: crash a node in the middle of the mole's forwarding chain,
// so the survivors re-home and an honest marker's depth changes, then
// keep injecting. Every post-repair packet must still verify cleanly —
// the resolver walks the arrival epoch's tree — and the verdict must
// keep pinning the mole. Before the epoch threading, the sink's resolver
// stayed on the start-up tree and every post-repair chain was wrongly
// reported Stopped (sink.verify.stops > 0).
func TestTracebackSurvivesMidChainCrash(t *testing.T) {
	reg := obs.New()
	scheme := marking.PNM{P: 1}
	net, topo, keys := startGrid(t, Config{
		Scheme: scheme,
		Seed:   61,
		Obs:    reg,
	})

	mole15 := packet.NodeID(15) // far corner: deepest chain in the grid
	victim := topo.Parent(topo.Parent(mole15))
	if victim == packet.SinkID || victim == topo.Parent(mole15) {
		t.Fatalf("fixture drift: victim %d is not a mid-chain hop", victim)
	}
	src := &mole.Source{ID: mole15, Base: packet.Report{Event: 0xE9}, Behavior: mole.MarkNever}
	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{mole15: keys.Key(mole15)}}
	rng := rand.New(rand.NewSource(62))
	inject := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			if err := net.Inject(mole15, src.Next(env, rng)); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.WaitSettled(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	inject(40)
	// The network is settled, so no in-flight packet straddles the epoch
	// boundary: everything injected from here on is marked under — and
	// resolved against — the repaired tree.
	net.ApplyFault(fault.Event{Kind: fault.NodeCrash, Node: victim})
	inject(40)

	if stops := reg.Counter("sink.verify.stops").Value(); stops != 0 {
		t.Fatalf("honest chains reported stopped %d times across the reroute; want 0", stops)
	}
	v := net.Verdict()
	if !v.Identified || !v.SuspectsContain(mole15) {
		t.Fatalf("verdict after churn = %+v, want the mole at V%d identified", v, mole15)
	}
}

// TestEpochHistoryBoundedUnderRouteChurn streams traffic through a grid
// whose shallow queues evict under DropOldest while a fault plan of 1,000
// alternating LinkDown/LinkUp events reroutes it, each repair opening a
// topology epoch. Every frame pins its arrival epoch on the sink hop and
// hands the pin back however it leaves (folded, refused, evicted), so
// once the network settles the epoch set must hold no pin and only the
// current epoch, and no verification may have read a released epoch.
func TestEpochHistoryBoundedUnderRouteChurn(t *testing.T) {
	const repairs, packets = 1000, 3000
	reg := obs.New()
	net, topo, _ := startGrid(t, Config{
		Scheme:      marking.PNM{P: 0.5},
		Seed:        71,
		QueueLen:    2,
		QueuePolicy: queue.DropOldest,
		Obs:         reg,
	})
	nodes := topo.Nodes()
	plan := &fault.Plan{}
	for i := 0; i < repairs; i++ {
		kind := fault.LinkDown
		if i%2 == 1 {
			kind = fault.LinkUp
		}
		plan.Events = append(plan.Events, fault.Event{At: i, Kind: kind, Node: nodes[(i/2)%len(nodes)]})
	}
	next := 0
	for i := 0; i < packets; i++ {
		msg := packet.Message{Report: packet.Report{Event: 0xE7, Seq: uint32(i)}}
		if err := net.Inject(nodes[i%len(nodes)], msg); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			next = net.ApplyDue(plan, next)
		}
	}
	if err := net.WaitSettled(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if next = net.ApplyDue(plan, next); next != len(plan.Events) {
		t.Fatalf("%d of %d plan events applied after %d packets settled", next, len(plan.Events), packets)
	}
	st := net.epochs.Stats()
	if st.Advanced <= repairs || st.Retained != 1 || st.Pinned != 0 || st.StaleReads != 0 {
		t.Fatalf("settled after %d repairs: %+v, want over %d epochs advanced, 1 retained, none pinned, no stale read", repairs, st, repairs)
	}
	if got := reg.Counter("netsim.queue_drop_oldest").Value(); got == 0 {
		t.Fatal("no frame was evicted: the shallow queues never overflowed")
	}
	// Nothing refuses, aborts or crashes here, so every pin handed back
	// beyond the folded frames was a sink-channel eviction's.
	if st.Unpinned <= uint64(net.Delivered()) {
		t.Fatalf("%d pins handed back for %d folded frames: the sink channel never evicted", st.Unpinned, net.Delivered())
	}
}
