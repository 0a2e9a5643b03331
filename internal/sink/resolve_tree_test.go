package sink

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"pnm/internal/mac"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// The tests in this file pin TopologyResolver's two routing-tree slots:
// switching epochs rebuilds a tree only when neither slot holds it, a
// reused slot never leaks the previous epoch's children, a warm epoch
// switch allocates nothing, and resolver state stays flat however many
// epochs the set accumulates.

// churnedEpochs returns a set over a 40-node geometric field whose epochs
// after the base alternate Rewire and Reroute snapshots. Each Reroute
// takes two random nodes down, so their cut-off subtrees are orphaned in
// that epoch and in the Rewires that follow it.
func churnedEpochs(t *testing.T, seed int64, epochs int) *topology.EpochSet {
	t.Helper()
	base, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 40, Side: 4, RadioRange: 1.3, Seed: seed, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	nets := []*topology.Network{base}
	for e := 1; e < epochs; e++ {
		net := nets[e-1]
		if e%2 == 1 {
			net = net.Rewire(rng.Int63())
		} else {
			a := packet.NodeID(1 + rng.Intn(base.NumNodes()))
			b := packet.NodeID(1 + rng.Intn(base.NumNodes()))
			net = base.Reroute(func(id packet.NodeID) bool { return id == a || id == b }, nil)
		}
		nets = append(nets, net)
	}
	return pinnedEpochs(t, base, nets[1:]...)
}

// rewiredEpochs returns a set of epochs Rewire snapshots of topo, the
// base included, every one pinned.
func rewiredEpochs(t *testing.T, topo *topology.Network, epochs int) *topology.EpochSet {
	t.Helper()
	nets := []*topology.Network{topo}
	for e := 1; e < epochs; e++ {
		nets = append(nets, nets[e-1].Rewire(int64(e)*131))
	}
	return pinnedEpochs(t, topo, nets[1:]...)
}

// pinnedEpochs returns a set over base advanced through nets, each epoch
// stamped before the set advances past it, so every epoch stays retained
// and At(v) reads the snapshot the test built. An old epoch nobody pins
// would clamp to a newer one and a test of epoch trees would pass
// without walking them, so a cleanup fails the test on any read of a
// released epoch.
func pinnedEpochs(t testing.TB, base *topology.Network, nets ...*topology.Network) *topology.EpochSet {
	t.Helper()
	set := topology.NewEpochSet(base)
	for _, net := range nets {
		set.Stamp()
		set.Advance(net)
	}
	t.Cleanup(func() {
		if n := set.Stats().StaleReads; n != 0 {
			t.Errorf("%d reads of a released epoch: the fixture lost a pin", n)
		}
	})
	return set
}

// TestTopologyResolverTreeBuildsCounter pins sink.resolver.tree_builds: a
// static network builds once, epochs resolved in order build once each,
// and two epochs alternating after warm-up build nothing further.
func TestTopologyResolverTreeBuildsCounter(t *testing.T) {
	topo := equivGrid(t)
	deep := topo.DeepestNode()
	rep := testReport(700)
	anon := realAnonID(deep, rep)
	accept := func(id packet.NodeID) bool { return id == deep }
	instrumented := func(set *topology.EpochSet) (*TopologyResolver, *obs.Counter) {
		r := NewTopologyResolverEpochs(testKS, set)
		reg := obs.New()
		r.Instrument(reg)
		return r, reg.Counter("sink.resolver.tree_builds")
	}

	r, builds := instrumented(topology.NewEpochSet(topo))
	for i := 0; i < 10; i++ {
		r.Resolve(rep, anon, packet.SinkID, false, 0, accept)
	}
	if got := builds.Value(); got != 1 {
		t.Errorf("static network: %d tree builds, want 1", got)
	}

	const epochs = 6
	set := rewiredEpochs(t, topo, epochs)
	r, builds = instrumented(set)
	for e := topology.EpochVersion(0); e < epochs; e++ {
		for i := 0; i < 3; i++ {
			r.Resolve(rep, anon, packet.SinkID, false, e, accept)
		}
	}
	if got := builds.Value(); got != epochs {
		t.Errorf("%d epochs in order: %d tree builds, want %d", epochs, got, epochs)
	}

	r, builds = instrumented(set)
	r.Resolve(rep, anon, packet.SinkID, false, 1, accept)
	r.Resolve(rep, anon, packet.SinkID, false, 2, accept)
	warm := builds.Value()
	for i := 0; i < 20; i++ {
		r.Resolve(rep, anon, packet.SinkID, false, topology.EpochVersion(1+i%2), accept)
	}
	if got := builds.Value(); warm != 2 || got != warm {
		t.Errorf("alternating epochs 1 and 2: %d builds to warm up, %d after; want 2 and no more", warm, got)
	}
}

// TestTopologyResolverEpochSwitchMatchesFreshProperty resolves random
// marks under a random sequence of epoch stamps through one long-lived
// resolver. Every candidate stream must equal, in order, the stream of a
// fresh resolver built over that epoch's snapshot alone, so a slot rebuilt
// over an older epoch's buffers can never keep a stale child. Anonymous
// IDs are truncated to three bits, so a stream lists about one node in
// eight of the searched subtree in BFS order.
func TestTopologyResolverEpochSwitchMatchesFreshProperty(t *testing.T) {
	trunc := func(k mac.Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
		a := mac.AnonID(k, report, id)
		return [packet.AnonIDLen]byte{a[0] & 0x07}
	}
	f := func(seed int64) bool {
		const epochs = 7
		set := churnedEpochs(t, seed, epochs)
		n := set.At(0).NumNodes()
		fresh := make([]*TopologyResolver, epochs)
		for e := range fresh {
			fresh[e] = NewTopologyResolver(testKS, set.At(topology.EpochVersion(e)))
			fresh[e].anonID = trunc
		}
		r := NewTopologyResolverEpochs(testKS, set)
		r.anonID = trunc
		rng := rand.New(rand.NewSource(seed))
		e := topology.EpochVersion(0)
		for call := 0; call < 60; call++ {
			// Mostly stay or step back and forth, sometimes jump.
			switch rng.Intn(4) {
			case 0:
				e = topology.EpochVersion(rng.Intn(epochs))
			case 1:
				e = (e + 1) % epochs
			case 2:
				e = (e + epochs - 1) % epochs
			}
			rep := packet.Report{Event: rng.Uint32(), Location: uint32(rng.Intn(3)), Seq: uint32(call)}
			anon := [packet.AnonIDLen]byte{byte(rng.Intn(8))}
			prev, havePrev := packet.NodeID(rng.Intn(n+1)), rng.Intn(3) > 0
			got := ResolveAll(r, rep, anon, prev, havePrev, e)
			want := ResolveAll(fresh[e], rep, anon, prev, havePrev, 0)
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d call %d epoch %d prev %d/%v: candidates %v, fresh resolver %v",
					seed, call, e, prev, havePrev, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// TestTopologyResolverEpochSwitchZeroAlloc cycles three epochs through
// the two tree slots, so every call rebuilds a tree: once the buffers
// have grown, neither the rebuild nor the resolution allocates.
func TestTopologyResolverEpochSwitchZeroAlloc(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 60, Side: 5, RadioRange: 1.4, Seed: 3, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewTopologyResolverEpochs(testKS, rewiredEpochs(t, topo, 3))
	reg := obs.New()
	r.Instrument(reg)
	deep := topo.DeepestNode()
	rep := testReport(800)
	anon := realAnonID(deep, rep)
	accept := func(id packet.NodeID) bool { return id == deep }
	cycle := func() {
		for e := topology.EpochVersion(0); e < 3; e++ {
			r.Resolve(rep, anon, packet.SinkID, false, e, accept)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	builds := reg.Counter("sink.resolver.tree_builds")
	before := builds.Value()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("epoch-switching Resolve allocates %.1f times per cycle, want 0", allocs)
	}
	if got := builds.Value() - before; got < 3*100 {
		t.Errorf("%d tree builds over the measured cycles, want every call to rebuild", got)
	}
}

// TestTopologyResolverStateFlatAcrossEpochs resolves one mark in each of
// 2,000 Rewire epochs. The epoch set is built before the baseline, so the
// heap still held afterwards is the resolver's own state: two trees, the
// search buffers, hints and key schedules, independent of the epoch count.
func TestTopologyResolverStateFlatAcrossEpochs(t *testing.T) {
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 60, Side: 5, RadioRange: 1.4, Seed: 3, SinkAtCorner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 2000
	set := rewiredEpochs(t, topo, epochs)
	deep := topo.DeepestNode()
	rep := testReport(900)
	anon := realAnonID(deep, rep)
	accept := func(id packet.NodeID) bool { return id == deep }

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	r := NewTopologyResolverEpochs(testKS, set)
	for e := topology.EpochVersion(0); e < epochs; e++ {
		r.Resolve(rep, anon, packet.SinkID, false, e, accept)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(r)
	if delta := int64(ms.HeapAlloc) - int64(base); delta > 64<<10 {
		t.Errorf("resolver holds %d bytes after %d epochs, want under 64 kB", delta, epochs)
	}
}
