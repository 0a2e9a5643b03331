package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pnm/internal/analytic"
	"pnm/internal/loadgen"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/topology"
	"pnm/internal/transport"
)

// warmPackets is the warm-up batch every sink start-up folds before it is
// timed or measured: it fills the key-schedule and routing-tree caches.
const warmPackets = 1024

// workload is one traffic mix. Its topology is fixed; the run's seed
// derives the keys, the reports and the marking RNG (and, under churn,
// the rewiring). The sink only ever sees the generated frames.
//
// The topology stays fixed because it sets how much work a packet costs:
// across ten seeded fields the churn workload's BFS probes per mark range
// from 7.9 to 11.3 and its throughput by ±15%, which would hide any
// change the bounds are meant to catch.
type workload struct {
	name string
	// rate is the open-loop send rate in packets per second. It sits at
	// 30-45% of the sink's saturation throughput as calibrated, so the open
	// loop measures a sustainable load even while the host runs 20% slower
	// than usual.
	rate int
	// epochLen is how many consecutive packets share one routing epoch;
	// 0 keeps the topology static.
	epochLen int
	// deploy builds the deployment for a seed. Every sink start-up calls
	// it afresh, so set-up pays for topology and key material.
	deploy func(seed int64) (*deployment, error)
	// generate emits the first n packets of the stream, marked against d;
	// packet i is forwarded along the routing tree netOf(i).
	generate func(d *deployment, seed int64, n int, netOf func(i int) *topology.Network, emit func(packet.Message))
}

// deployment is what the sink and the traffic generator agree on.
type deployment struct {
	topo   *topology.Network
	keys   *mac.KeyStore
	scheme marking.PNM
	// sources are the nodes injecting the stream; a verdict is precise
	// when its suspects contain one of them.
	sources []packet.NodeID
}

// workloads lists every traffic mix by name.
var workloads = map[string]workload{
	// Anonymous-ID resolution does almost all the work: marks sit deep in a
	// 2048-node field, so each one costs a long BFS of AnonID probes.
	"keyed-2k": {name: "keyed-2k", rate: 2500, deploy: deployKeyed, generate: generateKeyed},
	// Every forwarder marks (P = 1), so resolution is nearly free and MAC
	// verify, decode, queue hand-off and fold dominate.
	"dense-300": {name: "dense-300", rate: 30000, deploy: deployDense, generate: generateMole},
	// The same resolver under route churn: a new routing epoch every 50
	// packets grows the per-epoch tree cache and the epoch set.
	"churn-120": {name: "churn-120", rate: 20000, epochLen: 50, deploy: deployChurn, generate: generateMole},
}

// workloadNames returns the workload names, sorted.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// masterKey derives a workload's key-store master secret from the seed.
func masterKey(name string, seed int64) []byte {
	return []byte(fmt.Sprintf("bench/%s/%d", name, seed))
}

// deployKeyed builds the scale bench's field (BENCH_scale.json: 2048
// nodes, topology seed 17) with the average degree just above the
// connectivity threshold (~ln n), the sink at the corner, and the 64
// deepest nodes as the keyed sources.
func deployKeyed(seed int64) (*deployment, error) {
	const nodes, hosts, topoSeed = 2048, 64, 17
	degree := math.Log(nodes) + 5
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: nodes, Side: math.Sqrt(nodes * math.Pi / degree), RadioRange: 1,
		Seed: topoSeed, SinkAtCorner: true,
	})
	if err != nil {
		return nil, err
	}
	byDepth := topo.Nodes()
	sort.SliceStable(byDepth, func(i, j int) bool {
		return topo.Depth(byDepth[i]) > topo.Depth(byDepth[j])
	})
	sources := byDepth[:hosts]
	return &deployment{
		topo:    topo,
		keys:    mac.NewKeyStore(masterKey("keyed-2k", seed)),
		scheme:  marking.PNM{P: analytic.ProbabilityForMarks(topo.Depth(sources[0])-1, 3)},
		sources: sources,
	}, nil
}

// generateKeyed emits one distinct report per packet (Event = i+1), the
// sources taking turns, each marked along its real forwarding path.
func generateKeyed(d *deployment, seed int64, n int, _ func(int) *topology.Network, emit func(packet.Message)) {
	paths := make([][]packet.NodeID, len(d.sources))
	for i, h := range d.sources {
		paths[i] = d.topo.Forwarders(h)
	}
	rng := rand.New(rand.NewSource(seed))
	hasher := d.keys.Hasher()
	var macBuf []byte
	var msg packet.Message
	for i := 0; i < n; i++ {
		h := i % len(d.sources)
		msg.Report = packet.Report{Event: uint32(i + 1), Location: uint32(d.sources[h]), Seq: 1}
		msg.Marks = msg.Marks[:0]
		for _, hop := range paths[h] {
			macBuf = d.scheme.MarkSched(hasher.Schedule(hop), macBuf, &msg, hop, rng)
		}
		emit(msg)
	}
}

// denseConfig is the pnmserve/pnmload default deployment (300 nodes,
// side 10, range 1.3, seed 1) with RedundancyMarks above any possible hop
// count, so P = 1 and every forwarder marks — the paper's §4.1 regime.
func denseConfig(seed int64) loadgen.Config {
	return loadgen.Config{
		Nodes: 300, Side: 10, RadioRange: 1.3, Seed: 1,
		Master: masterKey("dense-300", seed), RedundancyMarks: 300,
	}
}

func deployDense(seed int64) (*deployment, error) {
	sc, err := loadgen.New(denseConfig(seed))
	if err != nil {
		return nil, err
	}
	scheme, ok := sc.Scheme.(marking.PNM)
	if !ok {
		return nil, fmt.Errorf("dense-300: scheme %s is not PNM", sc.Scheme.Name())
	}
	return &deployment{topo: sc.Topo, keys: sc.Keys, scheme: scheme, sources: []packet.NodeID{sc.Mole}}, nil
}

// deployChurn is the churn bench's field (BENCH_churn.json: 120 nodes,
// side 7, range 1.5, topology seed 31) with a MarkNever mole at the
// deepest node and P set for three marks.
func deployChurn(seed int64) (*deployment, error) {
	base, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 120, Side: 7, RadioRange: 1.5, Seed: 31, SinkAtCorner: true,
	})
	if err != nil {
		return nil, err
	}
	moleID := base.DeepestNode()
	return &deployment{
		topo:    base,
		keys:    mac.NewKeyStore(masterKey("churn-120", seed)),
		scheme:  marking.PNM{P: analytic.ProbabilityForMarks(base.Depth(moleID)-1, 3)},
		sources: []packet.NodeID{moleID},
	}, nil
}

// churnNets returns the routing tree of each of the first epochs epochs:
// epoch 0 is the base topology, and each later one rewires its
// predecessor. Rewire keeps hop distances, so the mole's path length (and
// with it the marking RNG's draws) is the same in every epoch.
func churnNets(base *topology.Network, seed int64, epochs int) []*topology.Network {
	nets := make([]*topology.Network, max(epochs, 1))
	nets[0] = base
	for e := 1; e < len(nets); e++ {
		nets[e] = nets[e-1].Rewire(seed + int64(e)*131)
	}
	return nets
}

// generateMole emits the loadgen mole stream: the source mole's unmarked
// reports, each marked along the mole's path in the routing tree it was
// forwarded under. With P = 1 it is byte-identical to loadgen's Stream.
func generateMole(d *deployment, seed int64, n int, netOf func(int) *topology.Network, emit func(packet.Message)) {
	moleID := d.sources[0]
	env := &mole.Env{Scheme: d.scheme, StolenKeys: map[packet.NodeID]mac.Key{moleID: d.keys.Key(moleID)}}
	src := &mole.Source{ID: moleID, Base: packet.Report{Event: 0xF00D, Location: uint32(moleID)}, Behavior: mole.MarkNever}
	rng := rand.New(rand.NewSource(seed))
	hasher := d.keys.Hasher()
	var macBuf []byte
	var net *topology.Network
	var path []packet.NodeID
	for i := 0; i < n; i++ {
		if netOf(i) != net {
			net = netOf(i)
			path = net.Forwarders(moleID)
		}
		msg := src.Next(env, rng)
		for _, hop := range path {
			macBuf = d.scheme.MarkSched(hasher.Schedule(hop), macBuf, &msg, hop, rng)
		}
		emit(msg)
	}
}

// stream is a workload's pre-encoded traffic: the sender only writes byte
// slices, so generation never competes with the sink while it is timed.
type stream struct {
	frames []byte
	// offs bounds the frames: frame i is frames[offs[i]:offs[i+1]].
	offs []int
	// warm leading frames are folded by every start-up before timing.
	warm     int
	epochLen int
	// nets[e] is the routing tree of epoch e; nil for static workloads.
	nets    []*topology.Network
	sources []packet.NodeID
}

// newStream generates and encodes warm+timed packets of w for seed. The
// warm-up batch ends on an epoch boundary.
func newStream(w workload, seed int64, warm, timed int) (*stream, error) {
	d, err := w.deploy(seed)
	if err != nil {
		return nil, err
	}
	if w.epochLen > 0 {
		warm -= warm % w.epochLen
	}
	n := warm + timed
	s := &stream{warm: warm, epochLen: w.epochLen, sources: d.sources, offs: make([]int, 1, n+1)}
	if w.epochLen > 0 {
		s.nets = churnNets(d.topo, seed, (n+w.epochLen-1)/w.epochLen)
	}
	netOf := func(i int) *topology.Network {
		if s.nets == nil {
			return d.topo
		}
		return s.nets[s.epoch(i)]
	}
	w.generate(d, seed, n, netOf, func(msg packet.Message) {
		if len(s.offs) == 65 && n > 64 {
			// Size the buffer once from the first frames, so a large stream
			// is not copied through append's growth steps.
			grown := make([]byte, len(s.frames), len(s.frames)*n/64*9/8)
			copy(grown, s.frames)
			s.frames = grown
		}
		s.frames = transport.AppendFrame(s.frames, msg)
		s.offs = append(s.offs, len(s.frames))
	})
	return s, nil
}

// len returns the number of frames.
func (s *stream) len() int { return len(s.offs) - 1 }

// bytes returns frames [i, j) as one contiguous slice.
func (s *stream) bytes(i, j int) []byte { return s.frames[s.offs[i]:s.offs[j]] }

// epoch returns the routing epoch frame i belongs to.
func (s *stream) epoch(i int) topology.EpochVersion {
	if s.epochLen == 0 {
		return 0
	}
	return topology.EpochVersion(i / s.epochLen)
}

// digest is the sha256 of every frame byte, in order.
func (s *stream) digest() string {
	sum := sha256.Sum256(s.frames)
	return hex.EncodeToString(sum[:])
}
