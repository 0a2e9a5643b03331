package transport

import (
	"math/rand"
	"testing"
	"time"

	"pnm/internal/fault"
	"pnm/internal/loadgen"
	"pnm/internal/obs"
	"pnm/internal/topology"
)

// TestLoopbackSoak is the live-server soak: pnmload-style replay into a
// server with a shallow ingest queue while a fault plan crashes the sink and restores it
// from its PNM2 checkpoint, twice, mid-stream. The traceback must still
// converge on the mole — outages cost only the evidence dropped while
// down, exactly the finding the simulator's fault benchmarks pinned.
// CI runs this under -race as the loopback soak step.
func TestLoopbackSoak(t *testing.T) {
	packets := 600
	if testing.Short() {
		packets = 200
	}
	sc := testScenario(t)
	reg := obs.New()
	srv, err := Listen("127.0.0.1:0", "", Config{
		NewVerifier: sc.NewVerifier,
		Topo:        sc.Topo,
		QueueDepth:  32,
		Obs:         reg,
		Faults: &fault.Plan{Events: []fault.Event{
			{At: packets / 6, Kind: fault.SinkCrash},
			{At: packets / 4, Kind: fault.SinkRestore},
			{At: packets / 2, Kind: fault.SinkCrash},
			{At: packets * 2 / 3, Kind: fault.SinkRestore},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i, msg := range sc.Stream(packets) {
		if err := cl.Send(msg); err != nil {
			t.Fatal(err)
		}
		// Flush in bursts so the stream straddles the chaos milestones
		// instead of arriving as one pre-buffered slab.
		if i%25 == 24 {
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything the sink processed is either folded or dropped-while-
	// down; wait until that accounting covers the whole stream.
	if err := srv.WaitProcessed(packets, 30*time.Second); err != nil {
		t.Fatalf("%v\nregistry:\n%s", err, reg)
	}

	if got := reg.Counter("transport.chaos.sink_crashes").Value(); got != 2 {
		t.Fatalf("sink crashes = %d, want 2", got)
	}
	if got := reg.Counter("transport.chaos.sink_restores").Value(); got != 2 {
		t.Fatalf("sink restores = %d, want 2", got)
	}
	if reg.Counter("transport.chaos.dropped_while_down").Value() == 0 {
		t.Fatal("no frames were dropped while the sink was down — the crash windows never saw traffic")
	}
	v := srv.Verdict()
	if !v.HasStop {
		t.Fatal("no stop node after the soak")
	}
	if !v.SuspectsContain(sc.Mole) {
		t.Fatalf("mole %v not in suspects %v after crash/restore soak", sc.Mole, v.Suspects)
	}
}

// TestListenRejectsNodeAndLinkFaults: a server has no nodes or links to
// fail, so a plan naming them is a configuration error, while a
// sink-only plan is accepted.
func TestListenRejectsNodeAndLinkFaults(t *testing.T) {
	sc := testScenario(t)
	for _, kind := range []fault.Kind{fault.NodeCrash, fault.NodeRestart, fault.LinkDown, fault.LinkUp} {
		srv, err := Listen("127.0.0.1:0", "", Config{
			NewVerifier: sc.NewVerifier,
			Faults: &fault.Plan{Events: []fault.Event{
				{At: 10, Kind: fault.SinkCrash},
				{At: 20, Kind: kind, Node: 3},
			}},
		})
		if err == nil {
			srv.Close()
			t.Fatalf("Listen accepted a %v event", kind)
		}
	}
	srv, err := Listen("127.0.0.1:0", "", Config{
		NewVerifier: sc.NewVerifier,
		Faults: &fault.Plan{Events: []fault.Event{
			{At: 10, Kind: fault.SinkCrash},
			{At: 20, Kind: fault.SinkRestore},
		}},
	})
	if err != nil {
		t.Fatalf("Listen rejected a sink-only plan: %v", err)
	}
	srv.Close()
}

// TestMobilitySoak is the bounded-history soak: a random-waypoint field
// advances through 10,000 epochs (1,000 under -short), one Step per
// frame, while the frames stream over loopback into a server whose
// Config.Epochs pins what its queue holds, and a fault.Plan crashes and
// restores the sink midway. Every 50 epochs, once every frame sent has
// left, the set must hold no pins and retain one epoch; at the end the
// ledger balances exactly, every frame was handed back once, no
// verification read a released epoch, and the heap the server retains
// stays under a ceiling far below what the walk's snapshots alone would
// cost if the set kept them (about 2.5 kB each at this density). CI runs
// the short form under -race with the loopback soak.
func TestMobilitySoak(t *testing.T) {
	epochs := 10_000
	if testing.Short() {
		epochs = 1_000
	}
	const nodes, settleEvery = 40, 50
	const heapCeiling = 1 << 20
	sc, err := loadgen.New(loadgen.Config{Nodes: nodes, Side: 5, RadioRange: 1.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	walk, err := topology.NewWaypoint(topology.WaypointConfig{
		Nodes: nodes, Side: 5, RadioRange: 1.6, MinSpeed: 0.05, MaxSpeed: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, env := sc.Source()
	rng := rand.New(rand.NewSource(7))

	heap0 := heapInUse()
	set := topology.NewEpochSet(walk.Network())
	reg := obs.New()
	srv, err := Listen("127.0.0.1:0", "", Config{
		NewVerifier: epochVerifier(sc, set),
		Topo:        sc.Topo,
		Epochs:      set,
		QueueDepth:  16,
		Obs:         reg,
		Faults: &fault.Plan{Events: []fault.Event{
			{At: epochs / 3, Kind: fault.SinkCrash},
			{At: epochs/3 + settleEvery, Kind: fault.SinkRestore},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= epochs; e++ {
		net, err := walk.Step()
		if err != nil {
			t.Fatal(err)
		}
		set.Advance(net)
		// Marked along this epoch's path; the server stamps whatever epoch
		// is current when it enqueues the frame, often a later one.
		msg := src.Next(env, rng)
		for _, hop := range net.Forwarders(sc.Mole) {
			msg = sc.Scheme.Mark(hop, sc.Keys.Key(hop), msg, rng)
		}
		if err := cl.Send(msg); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		if e%settleEvery == 0 {
			waitSettled(t, reg, uint64(e))
			if st := set.Stats(); st.Pinned != 0 || st.Retained != 1 {
				t.Fatalf("epoch %d: every frame settled, yet %+v", e, st)
			}
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, reg, uint64(epochs))
	retained := int64(heapInUse()) - int64(heap0)
	srv.Close()

	l := readLedger(reg)
	if l.frames != uint64(epochs) || l.frames != l.settled() || l.down == 0 {
		t.Fatalf("ledger off, or the outage saw no traffic: %+v", l)
	}
	want := topology.EpochStats{Advanced: epochs + 1, Retained: 1, Unpinned: l.frames}
	if st := set.Stats(); st != want {
		t.Fatalf("after Close: %+v, want %+v", st, want)
	}
	if got := reg.Counter("transport.chaos.sink_restores").Value(); got != 1 {
		t.Fatalf("sink restores = %d, want 1", got)
	}
	t.Logf("%d epochs: server retains %d B of heap", epochs, retained)
	if retained > heapCeiling {
		t.Fatalf("server retains %d B after %d epochs, above the %d B ceiling", retained, epochs, heapCeiling)
	}
}
