package transport

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"pnm/internal/loadgen"
	"pnm/internal/mac"
	"pnm/internal/mole"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/queue"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

func testScenario(t *testing.T) *loadgen.Scenario {
	t.Helper()
	s, err := loadgen.New(loadgen.Config{Nodes: 80, Side: 5, RadioRange: 1.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLoopbackVerdictByteIdentical is the acceptance test: replaying a
// seeded scenario through a real TCP socket yields a verdict
// byte-identical to folding the same stream in-process — on a static
// topology, and on one that churns while the stream is in flight.
func TestLoopbackVerdictByteIdentical(t *testing.T) {
	const packets = 200
	sc := testScenario(t)
	want := loadgen.FormatVerdict(sc.Verdict(packets))

	for _, workers := range []int{1, 4} {
		srv, err := Listen("127.0.0.1:0", "", Config{
			NewVerifier: sc.NewVerifier,
			Topo:        sc.Topo,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Dial(srv.Addr().String())
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		for _, msg := range sc.Stream(packets) {
			if err := cl.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.WaitDelivered(packets, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		got := loadgen.FormatVerdict(srv.Verdict())
		srv.Close()
		if got != want {
			t.Fatalf("workers=%d: networked verdict differs\n got: %s\nwant: %s", workers, got, want)
		}
	}

	// Churn: segment e of the stream is marked along the mole's path in
	// routing epoch e (each epoch rewires the last). Before sending a
	// segment the test waits until every earlier frame is folded, then
	// advances the server's epoch set, so the server stamps each frame
	// with the epoch it was marked under. The wider radio range gives
	// Rewire alternative parents, so the mole's path changes every epoch.
	sc, err := loadgen.New(loadgen.Config{Nodes: 80, Side: 5, RadioRange: 1.6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 4
	const seg = packets / epochs
	nets := []*topology.Network{sc.Topo}
	for e := 1; e < epochs; e++ {
		nets = append(nets, nets[e-1].Rewire(int64(e)*101))
	}
	churned := churnedStream(sc, nets, seg)
	verifierOver := func(set *topology.EpochSet) func() sink.Verifier {
		return func() sink.Verifier {
			v, err := sink.NewVerifier(sc.Scheme, sc.Keys, sc.Topo.NumNodes(), sink.NewTopologyResolverEpochs(sc.Keys, set))
			if err != nil {
				panic(err)
			}
			return v
		}
	}

	// In-process reference: a serial tracker over the full epoch history,
	// each packet observed at the epoch it was marked under.
	refSet := topology.NewEpochSet(sc.Topo)
	for _, net := range nets[1:] {
		refSet.Advance(net)
	}
	ref := sink.NewTracker(verifierOver(refSet)(), sc.Topo)
	for i, msg := range churned {
		if res := ref.ObserveAt(msg, topology.EpochVersion(i/seg)); res.Stopped {
			t.Fatalf("reference packet %d (epoch %d) stopped: %+v", i, i/seg, res)
		}
	}
	want = loadgen.FormatVerdict(ref.Verdict())
	// At the base epoch the churned stream does not verify, so a server
	// that ignored the epoch stamps would count stops.
	stale := sink.NewTracker(verifierOver(refSet)(), sc.Topo)
	staleStops := 0
	for _, msg := range churned {
		if stale.Observe(msg).Stopped {
			staleStops++
		}
	}
	if staleStops == 0 {
		t.Fatal("churned stream verifies at the base epoch; the epoch case tests nothing")
	}

	for _, workers := range []int{1, 4} {
		set := topology.NewEpochSet(sc.Topo)
		reg := obs.New()
		srv, err := Listen("127.0.0.1:0", "", Config{
			NewVerifier: verifierOver(set),
			Topo:        sc.Topo,
			Epochs:      set,
			Workers:     workers,
			Obs:         reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Dial(srv.Addr().String())
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		for e := 0; e < epochs; e++ {
			if e > 0 {
				if err := srv.WaitDelivered(e*seg, 10*time.Second); err != nil {
					t.Fatal(err)
				}
				set.Advance(nets[e])
			}
			for _, msg := range churned[e*seg : (e+1)*seg] {
				if err := cl.Send(msg); err != nil {
					t.Fatal(err)
				}
			}
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.WaitDelivered(packets, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		got := loadgen.FormatVerdict(srv.Verdict())
		srv.Close()
		if got != want {
			t.Fatalf("churn workers=%d: networked verdict differs\n got: %s\nwant: %s", workers, got, want)
		}
		if stops := reg.Counter("sink.verify.stops").Value(); stops != 0 {
			t.Fatalf("churn workers=%d: %d honest packets stopped", workers, stops)
		}
	}
}

// churnedStream marks len(nets)*seg packets of the scenario's mole
// stream: packet i travels the mole's path in routing epoch i/seg.
func churnedStream(sc *loadgen.Scenario, nets []*topology.Network, seg int) []packet.Message {
	env := &mole.Env{Scheme: sc.Scheme, StolenKeys: map[packet.NodeID]mac.Key{sc.Mole: sc.Keys.Key(sc.Mole)}}
	src := &mole.Source{
		ID:       sc.Mole,
		Base:     packet.Report{Event: 0xF00D, Location: uint32(sc.Mole)},
		Behavior: mole.MarkNever,
	}
	rng := rand.New(rand.NewSource(5))
	var out []packet.Message
	for i := 0; i < len(nets)*seg; i++ {
		msg := src.Next(env, rng)
		for _, hop := range nets[i/seg].Forwarders(sc.Mole) {
			msg = sc.Scheme.Mark(hop, sc.Keys.Key(hop), msg, rng)
		}
		out = append(out, msg)
	}
	return out
}

// TestLoopbackUDP delivers the same stream over UDP datagrams. Loopback
// does not reorder, and the order matrix is commutative across packets
// anyway, so the verdict must again match the in-process run.
func TestLoopbackUDP(t *testing.T) {
	const packets = 200
	sc := testScenario(t)
	want := loadgen.FormatVerdict(sc.Verdict(packets))

	srv, err := Listen("127.0.0.1:0", "127.0.0.1:0", Config{
		NewVerifier: sc.NewVerifier,
		Topo:        sc.Topo,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialUDP(srv.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, msg := range sc.Stream(packets) {
		if err := cl.Send(msg); err != nil {
			t.Fatal(err)
		}
		// Pace lightly so loopback socket buffers keep up; UDP is
		// best-effort and a dropped datagram would void the comparison.
		if i%32 == 31 {
			time.Sleep(time.Millisecond)
		}
	}
	if err := srv.WaitDelivered(packets, 5*time.Second); err != nil {
		t.Skipf("loopback UDP dropped datagrams, identity not checkable: %v", err)
	}
	if got := loadgen.FormatVerdict(srv.Verdict()); got != want {
		t.Fatalf("UDP verdict differs\n got: %s\nwant: %s", got, want)
	}
}

// TestHostileFramesRejected sends each hostile frame class over a real
// socket and asserts the server counts a rejection, never panics, and
// keeps serving well-formed traffic afterwards.
func TestHostileFramesRejected(t *testing.T) {
	sc := testScenario(t)
	reg := obs.New()
	srv, err := Listen("127.0.0.1:0", "", Config{
		NewVerifier: sc.NewVerifier,
		Topo:        sc.Topo,
		Limits:      Limits{MaxFrameBytes: 4096, MaxMarks: 8},
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hostile := [][]byte{
		{0xFF, 0xFF, 0xFF},                         // truncated header
		{0xDE, 0xAD, 1, 1, 0, 0, 0, 0},             // bad magic
		{0x50, 0x4E, 9, 1, 0, 0, 0, 0},             // bad version
		{0x50, 0x4E, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF}, // oversized claim
		{0x50, 0x4E, 1, 1, 0, 0, 0, 40, 1, 2, 3},   // truncated payload
	}
	bomb := testScenario(t).Stream(1)[0]
	for len(bomb.Marks) < 16 {
		bomb.Marks = append(bomb.Marks, bomb.Marks[0])
	}
	hostile = append(hostile, AppendFrame(nil, bomb)) // mark-count bomb

	for i, b := range hostile {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(b); err != nil {
			t.Fatalf("hostile %d: %v", i, err)
		}
		conn.Close()
	}

	// The server must still ingest clean traffic.
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range sc.Stream(50) {
		if err := cl.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	if err := srv.WaitDelivered(50, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Every hostile frame class must have been counted. Rejections are
	// asynchronous to WaitDelivered, so poll briefly.
	names := []string{
		"transport.decode.truncated",
		"transport.decode.bad_magic",
		"transport.decode.bad_version",
		"transport.decode.frame_too_big",
		"transport.decode.bad_payload",
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		missing := ""
		for _, name := range names {
			if reg.Counter(name).Value() == 0 {
				missing = name
				break
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter %s never incremented\nregistry:\n%s", missing, reg)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Delivered(); got != 50 {
		t.Fatalf("delivered %d, want 50 (hostile frames must not be folded)", got)
	}
}

// TestBackpressurePolicies drives a tiny ingest queue with each overflow
// policy and asserts the per-policy counters fire and the server
// survives.
func TestBackpressurePolicies(t *testing.T) {
	const packets = 300
	sc := testScenario(t)
	stream := sc.Stream(packets)
	for _, tt := range []struct {
		policy  queue.Policy
		counter string
	}{
		{queue.Block, "transport.ingest.queue_full_blocks"},
		{queue.DropNewest, "transport.ingest.queue_drop_newest"},
		{queue.DropOldest, "transport.ingest.queue_drop_oldest"},
	} {
		t.Run(tt.policy.String(), func(t *testing.T) {
			reg := obs.New()
			srv, err := Listen("127.0.0.1:0", "", Config{
				NewVerifier: sc.NewVerifier,
				Topo:        sc.Topo,
				QueueDepth:  1,
				Policy:      tt.policy,
				Obs:         reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl, err := Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range stream {
				if err := cl.Send(msg); err != nil {
					t.Fatal(err)
				}
			}
			cl.Close()
			// Block is lossless: everything arrives. The drop policies
			// shed some load; whatever arrives must still be counted
			// consistently (delivered + dropped = sent).
			if tt.policy == queue.Block {
				if err := srv.WaitDelivered(packets, 10*time.Second); err != nil {
					t.Fatal(err)
				}
			} else {
				deadline := time.Now().Add(10 * time.Second)
				for {
					delivered := uint64(srv.Delivered())
					dropped := reg.Counter("transport.ingest.queue_drop_newest").Value() +
						reg.Counter("transport.ingest.queue_drop_oldest").Value()
					if delivered+dropped >= packets {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("only %d delivered + %d dropped of %d", delivered, dropped, packets)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			if reg.Counter(tt.counter).Value() == 0 {
				t.Fatalf("%s never fired with queue depth 1\nregistry:\n%s", tt.counter, reg)
			}
		})
	}
}

// TestMaxConnsRefused verifies the accept bound.
func TestMaxConnsRefused(t *testing.T) {
	sc := testScenario(t)
	reg := obs.New()
	srv, err := Listen("127.0.0.1:0", "", Config{
		NewVerifier: sc.NewVerifier,
		MaxConns:    1,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	first, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	// Give the accept loop time to register the first connection, then
	// dial more; they must be refused (closed by the server).
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("transport.conns_accepted").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first connection never accepted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for reg.Counter("transport.conns_refused").Value() == 0 {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err == nil {
			conn.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("no connection was ever refused with MaxConns=1")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
