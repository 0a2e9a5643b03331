package transport

import (
	"testing"
	"time"

	"pnm/internal/fault"
	"pnm/internal/obs"
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
	deadline := time.Now().Add(30 * time.Second)
	for {
		processed := uint64(srv.Delivered()) + reg.Counter("transport.chaos.dropped_while_down").Value()
		if processed >= uint64(packets) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames processed before timeout\nregistry:\n%s", processed, packets, reg)
		}
		time.Sleep(10 * time.Millisecond)
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
