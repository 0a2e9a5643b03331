package sink

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// goldenStream is a fixed PNM stream over a fixed field: interleaved
// sources, retransmissions, and a share of packets with one mark's MAC
// or anonymous ID corrupted, so the dump covers accepted marks, stops,
// rejected candidates and marks no candidate matches.
func goldenStream(t *testing.T, ks *mac.KeyStore) (*topology.Network, marking.PNM, []packet.Message) {
	t.Helper()
	topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
		Nodes: 150, Side: 8, RadioRange: 1.6, SinkAtCorner: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	scheme := marking.PNM{P: 0.3}
	rng := rand.New(rand.NewSource(19))
	nodes := topo.Nodes()
	var stream []packet.Message
	for s := 0; s < 6; s++ {
		src := nodes[rng.Intn(len(nodes))]
		for r := 0; r < 12; r++ {
			msg := packet.Message{Report: packet.Report{Event: rng.Uint32(), Location: uint32(src), Seq: uint32(r + 1)}}
			for _, hop := range topo.Forwarders(src) {
				msg = scheme.Mark(hop, ks.Key(hop), msg, rng)
			}
			for rep := 0; rep < 3; rep++ {
				out := msg.Clone()
				if len(out.Marks) > 0 {
					switch rng.Intn(6) {
					case 0:
						out.Marks[rng.Intn(len(out.Marks))].MAC[0] ^= 0x80
					case 1:
						out.Marks[rng.Intn(len(out.Marks))].AnonID[1] ^= 0x40
					}
				}
				stream = append(stream, out)
			}
		}
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return topo, scheme, stream
}

// dumpRegistry renders every metric, histogram buckets included.
func dumpRegistry(reg *obs.Registry) string {
	var b strings.Builder
	for _, m := range reg.Snapshot() {
		fmt.Fprintf(&b, "%s %s %d", m.Name, m.Kind, m.Value)
		if m.Kind == "histogram" {
			fmt.Fprintf(&b, " sum=%d buckets=%v", m.Sum, m.Buckets)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// goldenTrackerDump is the obs dump of goldenStream through a Tracker
// over a topology resolver, recorded before the verifier batched its
// per-mark counter updates. Every counter, cache
// counters included, must keep its value: the batching changes when
// counts are published, never what they count.
const goldenTrackerDump = `mac.schedule.core_builds counter 150
mac.schedule.hits counter 7657
mac.schedule.misses counter 150
sink.resolver.candidates counter 205
sink.resolver.hint_hits counter 168
sink.resolver.hint_misses counter 58
sink.resolver.probes counter 7602
sink.resolver.tree_builds counter 1
sink.tracker.chains_folded counter 118
sink.tracker.packets counter 216
sink.verify.mac_candidates_per_mark histogram 226 sum=205 buckets=[{1 21} {2 205}]
sink.verify.marks_verified counter 179
sink.verify.packets counter 216
sink.verify.stops counter 47
`

// TestObsDumpGolden pins the full obs dump of a fixed stream through a
// Tracker against the recorded one.
func TestObsDumpGolden(t *testing.T) {
	newVerifier := func(ks *mac.KeyStore, topo *topology.Network, scheme marking.PNM) Verifier {
		v, err := NewVerifier(scheme, ks, topo.NumNodes(), NewTopologyResolver(ks, topo))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	ks := mac.NewKeyStore([]byte("obs-golden"))
	topo, scheme, stream := goldenStream(t, ks)
	reg := obs.New()
	tracker := NewTracker(newVerifier(ks, topo, scheme), topo)
	tracker.Instrument(reg)
	for _, msg := range stream {
		tracker.Observe(msg, 0)
	}
	if got := dumpRegistry(reg); got != goldenTrackerDump {
		t.Errorf("tracker obs dump differs from the recorded one:\n%s", got)
	}
}
