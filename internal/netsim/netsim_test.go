package netsim

import (
	"math/rand"
	"testing"
	"time"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

func startChain(t *testing.T, n int, cfg Config) (*Network, *topology.Network, *mac.KeyStore) {
	t.Helper()
	topo, err := topology.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	keys := mac.NewKeyStore([]byte("netsim-test"))
	cfg.Topo = topo
	cfg.Keys = keys
	net, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	return net, topo, keys
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Fatal("want error for missing config")
	}
}

func TestLiveTracebackOnChain(t *testing.T) {
	const n = 11
	p := 3 / float64(n-1)
	scheme := marking.PNM{P: p}
	net, _, keys := startChain(t, n, Config{Scheme: scheme, Seed: 1})

	src := &mole.Source{ID: n, Base: packet.Report{Event: 0xAB}, Behavior: mole.MarkNever}
	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{n: keys.Key(n)}}
	rng := rand.New(rand.NewSource(2))
	const packets = 300
	for i := 0; i < packets; i++ {
		if err := net.Inject(n, src.Next(env, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.WaitDelivered(packets, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	v := net.Verdict()
	if !v.Identified {
		t.Fatalf("verdict = %+v, want identified", v)
	}
	if v.Stop != n-1 {
		t.Fatalf("Stop = %v, want V%d", v.Stop, n-1)
	}
	if !v.SuspectsContain(n) {
		t.Fatalf("suspects %v do not contain the source mole", v.Suspects)
	}
}

func TestLossyLinksStillConverge(t *testing.T) {
	const n = 9
	p := 3 / float64(n-1)
	scheme := marking.PNM{P: p}
	net, _, keys := startChain(t, n, Config{Scheme: scheme, Seed: 3, LossProb: 0.2})

	src := &mole.Source{ID: n, Base: packet.Report{Event: 0xCD}, Behavior: mole.MarkNever}
	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{n: keys.Key(n)}}
	rng := rand.New(rand.NewSource(4))
	const packets = 1200
	for i := 0; i < packets; i++ {
		if err := net.Inject(n, src.Next(env, rng)); err != nil {
			t.Fatal(err)
		}
	}
	// With 20% per-link loss over 8 links, roughly (0.8)^8 ~ 17% arrive.
	if err := net.WaitDelivered(packets/20, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Give the queue a moment to drain, then check convergence.
	time.Sleep(200 * time.Millisecond)
	v := net.Verdict()
	if !v.HasStop {
		t.Fatalf("no verdict under loss: %+v", v)
	}
	if !v.SuspectsContain(n) && v.Stop != n-1 {
		t.Fatalf("verdict off target under loss: %+v", v)
	}
}

func TestColludingMoleInLiveNetwork(t *testing.T) {
	const n = 11
	p := 3 / float64(n-1)
	scheme := marking.PNM{P: p}
	topo, err := topology.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	keys := mac.NewKeyStore([]byte("netsim-test"))
	moleID := packet.NodeID(5)
	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{
		n:      keys.Key(n),
		moleID: keys.Key(moleID),
	}}
	net, err := Start(Config{
		Topo: topo, Keys: keys, Scheme: scheme, Seed: 5, Env: env,
		Moles: map[packet.NodeID]*mole.Forwarder{
			moleID: {ID: moleID, Behavior: mole.MarkNever, Tampers: []mole.Tamper{mole.RemoveAll{}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)

	src := &mole.Source{ID: n, Base: packet.Report{Event: 0xEF}, Behavior: mole.MarkNever}
	rng := rand.New(rand.NewSource(6))
	const packets = 400
	for i := 0; i < packets; i++ {
		if err := net.Inject(n, src.Next(env, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.WaitDelivered(packets, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	v := net.Verdict()
	// The mole at node 5 strips everything upstream; the sink converges on
	// node 4 (its next hop), whose neighborhood contains the mole.
	if !v.HasStop || !v.SuspectsContain(moleID) {
		t.Fatalf("verdict %+v does not localize the colluding mole", v)
	}
}

func TestInjectAfterClose(t *testing.T) {
	net, _, _ := startChain(t, 4, Config{Scheme: marking.Nested{}, Seed: 7})
	net.Close()
	if err := net.Inject(4, packet.Message{}); err == nil {
		t.Fatal("want error injecting into a closed network")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	net, _, _ := startChain(t, 4, Config{Scheme: marking.Nested{}, Seed: 8})
	net.Close()
	net.Close()
}

func TestGeometricNetworkLive(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 60, Side: 5, RadioRange: 1.4, Seed: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := mac.NewKeyStore([]byte("netsim-test"))
	src := topo.DeepestNode()
	hops := topo.Depth(src)
	if hops < 3 {
		t.Skip("degenerate topology")
	}
	p := 3 / float64(hops)
	scheme := marking.PNM{P: p}
	net, err := Start(Config{Topo: topo, Keys: keys, Scheme: scheme, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)

	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{src: keys.Key(src)}}
	srcMole := &mole.Source{ID: src, Base: packet.Report{Event: 0x77}, Behavior: mole.MarkNever}
	rng := rand.New(rand.NewSource(10))
	const packets = 400
	for i := 0; i < packets; i++ {
		if err := net.Inject(src, srcMole.Next(env, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.WaitDelivered(packets, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	v := net.Verdict()
	if !v.HasStop || !v.SuspectsContain(src) {
		t.Fatalf("live geometric traceback missed the mole: %+v (src %v, fwd %v)",
			v, src, topo.Forwarders(src))
	}
}

// TestInjectAppliesLossSeeded pins Inject's loss behavior: the source's
// own radio hop draws from the injection RNG, so with a fixed seed the
// delivered count is exactly reproducible. The chain has one node whose
// parent is the sink, so the injection draw is the only loss decision.
func TestInjectAppliesLossSeeded(t *testing.T) {
	const seed, lossProb, packets = int64(42), 0.5, 200
	net, _, _ := startChain(t, 1, Config{Scheme: marking.Nested{}, Seed: seed, LossProb: lossProb})

	// Replay the injection RNG to compute the exact expected survivors.
	rng := rand.New(rand.NewSource(seed ^ injectSeedSalt))
	expected := 0
	for i := 0; i < packets; i++ {
		if !(rng.Float64() < lossProb) {
			expected++
		}
	}
	if expected == 0 || expected == packets {
		t.Fatalf("degenerate expectation %d of %d", expected, packets)
	}

	for i := 0; i < packets; i++ {
		if err := net.Inject(1, packet.Message{Report: packet.Report{Event: 0x11, Seq: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.WaitDelivered(expected, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Exactly expected packets survived the first hop; nothing else can
	// arrive.
	if got := net.Delivered(); got != expected {
		t.Fatalf("delivered %d, want exactly %d", got, expected)
	}
}

// TestInjectTotalLossDeliversNothing: LossProb 1 drops every injected
// packet on the source's own hop; Inject still reports success (radio
// loss is not an injection error).
func TestInjectTotalLossDeliversNothing(t *testing.T) {
	net, _, _ := startChain(t, 1, Config{Scheme: marking.Nested{}, Seed: 11, LossProb: 1})
	for i := 0; i < 50; i++ {
		if err := net.Inject(1, packet.Message{Report: packet.Report{Seq: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.WaitDelivered(1, 100*time.Millisecond); err == nil {
		t.Fatal("want timeout: no packet can survive LossProb 1")
	}
	if got := net.Delivered(); got != 0 {
		t.Fatalf("delivered %d, want 0", got)
	}
}

// TestWaitDeliveredReturnsOnClose: a closed network can never deliver
// more, so WaitDelivered must not sit out its full timeout.
func TestWaitDeliveredReturnsOnClose(t *testing.T) {
	net, _, _ := startChain(t, 2, Config{Scheme: marking.Nested{}, Seed: 12})
	net.Close()
	if err := net.WaitDelivered(1, time.Hour); err == nil {
		t.Fatal("want error waiting on a closed network")
	}
}

// TestObsCountersThroughNetwork wires an obs.Registry through Config and
// checks the simulator's counters and the instrumented sink chain agree
// with Delivered().
func TestObsCountersThroughNetwork(t *testing.T) {
	reg := obs.New()
	const n = 5
	scheme := marking.PNM{P: 0.75}
	net, _, keys := startChain(t, n, Config{Scheme: scheme, Seed: 13, Obs: reg})

	src := &mole.Source{ID: n, Base: packet.Report{Event: 0x42}, Behavior: mole.MarkNever}
	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{n: keys.Key(n)}}
	rng := rand.New(rand.NewSource(14))
	const packets = 120
	for i := 0; i < packets; i++ {
		if err := net.Inject(n, src.Next(env, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.WaitDelivered(packets, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("netsim.delivered").Value(); got != packets {
		t.Fatalf("netsim.delivered = %d, want %d", got, packets)
	}
	if got := reg.Counter("netsim.radio_lost").Value(); got != 0 {
		t.Fatalf("netsim.radio_lost = %d, want 0 without loss", got)
	}
	if got := reg.Counter("sink.tracker.packets").Value(); got != packets {
		t.Fatalf("sink.tracker.packets = %d, want %d (tracker not instrumented?)", got, packets)
	}
	if got := reg.Counter("sink.verify.packets").Value(); got != packets {
		t.Fatalf("sink.verify.packets = %d, want %d (verifier not instrumented?)", got, packets)
	}
}

// TestObsCountsRadioLoss: with loss armed, radio_lost plus delivered
// accounts for every injected packet on a one-hop chain.
func TestObsCountsRadioLoss(t *testing.T) {
	reg := obs.New()
	net, _, _ := startChain(t, 1, Config{Scheme: marking.Nested{}, Seed: 15, LossProb: 0.4, Obs: reg})
	const packets = 150
	for i := 0; i < packets; i++ {
		if err := net.Inject(1, packet.Message{Report: packet.Report{Seq: uint32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	lost := reg.Counter("netsim.radio_lost").Value()
	if lost == 0 || lost == packets {
		t.Fatalf("radio_lost = %d, want strictly between 0 and %d", lost, packets)
	}
	if err := net.WaitDelivered(packets-int(lost), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("netsim.delivered").Value(); got+lost != packets {
		t.Fatalf("delivered %d + lost %d != injected %d", got, lost, packets)
	}
}
