package sink

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// pipelineTraffic marks randomized interleaved multi-source traffic over
// topo: each source emits several distinct reports, retransmits each a
// few times, and the deliveries shuffle together — the regime the
// resolver cache and the pipeline are built for. A fraction of packets
// get one mark's MAC corrupted so Stopped results appear too.
func pipelineTraffic(topo *topology.Network, rng *rand.Rand, sources, reports, repeats int) []packet.Message {
	scheme := marking.PNM{P: 0.4}
	nodes := topo.Nodes()
	var stream []packet.Message
	for s := 0; s < sources; s++ {
		src := nodes[rng.Intn(len(nodes))]
		for r := 0; r < reports; r++ {
			msg := packet.Message{Report: packet.Report{
				Event: rng.Uint32(), Location: uint32(src), Seq: uint32(r + 1),
			}}
			for _, hop := range topo.Forwarders(src) {
				msg = scheme.Mark(hop, testKS.Key(hop), msg, rng)
			}
			for rep := 0; rep < repeats; rep++ {
				out := msg.Clone()
				if len(out.Marks) > 0 && rng.Intn(4) == 0 {
					out.Marks[rng.Intn(len(out.Marks))].MAC[0] ^= 0x80
				}
				stream = append(stream, out)
			}
		}
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return stream
}

// runPipeline pushes stream through a fresh pipeline with the given
// worker count in batches of batchLen, collecting a deep copy of every
// Result, the final verdict, and the verdict-visible obs counters.
func runPipeline(t *testing.T, topo *topology.Network, stream []packet.Message, workers, batchLen int) ([]Result, Verdict, map[string]uint64) {
	t.Helper()
	reg := obs.New()
	factory := func() Verifier {
		resolver := NewExhaustiveResolver(testKS, topo.Nodes())
		v, err := NewVerifier(marking.PNM{P: 0.4}, testKS, topo.NumNodes(), resolver)
		if err != nil {
			panic(err)
		}
		v.(*NestedVerifier).Instrument(reg)
		return v
	}
	serialV, err := NewVerifier(marking.PNM{P: 0.4}, testKS, topo.NumNodes(), NewExhaustiveResolver(testKS, topo.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	tracker := NewTracker(serialV, topo)
	tracker.Instrument(reg)
	pipe := NewPipeline(workers, factory, tracker)
	pipe.Instrument(reg)
	defer pipe.Close()

	var all []Result
	for lo := 0; lo < len(stream); lo += batchLen {
		hi := min(lo+batchLen, len(stream))
		for _, res := range pipe.Observe(stream[lo:hi], nil) {
			cp := Result{Stopped: res.Stopped, Chain: append([]packet.NodeID(nil), res.Chain...)}
			all = append(all, cp)
		}
	}
	visible := map[string]uint64{
		"sink.verify.packets":        reg.Counter("sink.verify.packets").Value(),
		"sink.verify.marks_verified": reg.Counter("sink.verify.marks_verified").Value(),
		"sink.verify.stops":          reg.Counter("sink.verify.stops").Value(),
		"sink.tracker.packets":       reg.Counter("sink.tracker.packets").Value(),
		"sink.tracker.chains_folded": reg.Counter("sink.tracker.chains_folded").Value(),
	}
	return all, tracker.Verdict(), visible
}

// TestPipelineDeterministicAcrossWorkerCounts is the pipeline's
// determinism property test: for randomized interleaved multi-source
// traffic, worker counts 1, 2 and 8 must produce identical per-packet
// Results, identical verdicts, and identical verdict-visible obs
// counters — and all must match the serial tracker.
func TestPipelineDeterministicAcrossWorkerCounts(t *testing.T) {
	topo, err := topology.NewGrid(topology.GridConfig{Width: 6, Height: 6, Spacing: 1, RadioRange: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, rawBatch uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		stream := pipelineTraffic(topo, rng, 3, 2, 3)
		batchLen := int(rawBatch%16) + 1

		// Serial reference: one tracker observing the stream in order.
		refV, err := NewVerifier(marking.PNM{P: 0.4}, testKS, topo.NumNodes(), NewExhaustiveResolver(testKS, topo.Nodes()))
		if err != nil {
			t.Error(err)
			return false
		}
		ref := NewTracker(refV, topo)
		var refResults []Result
		for _, m := range stream {
			res := ref.Observe(m)
			refResults = append(refResults, Result{Stopped: res.Stopped, Chain: append([]packet.NodeID(nil), res.Chain...)})
		}
		refVerdict := ref.Verdict()

		var first map[string]uint64
		for _, workers := range []int{1, 2, 8} {
			results, verdict, visible := runPipeline(t, topo, stream, workers, batchLen)
			if !reflect.DeepEqual(results, refResults) {
				t.Errorf("seed %d, workers %d: results diverged from serial", seed, workers)
				return false
			}
			if !reflect.DeepEqual(verdict, refVerdict) {
				t.Errorf("seed %d, workers %d: verdict %+v, serial %+v", seed, workers, verdict, refVerdict)
				return false
			}
			if first == nil {
				first = visible
			} else if !reflect.DeepEqual(visible, first) {
				t.Errorf("seed %d, workers %d: visible counters %v, want %v", seed, workers, visible, first)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineSharedKeyStoreRace exercises the one piece of genuinely
// shared state — the KeyStore — under worker concurrency, with schedules
// being built in every worker at once. Run under -race (the CI race list
// includes this package) it proves the store's synchronization is the
// only synchronization the pipeline needs.
func TestPipelineSharedKeyStoreRace(t *testing.T) {
	topo, err := topology.NewGrid(topology.GridConfig{Width: 6, Height: 6, Spacing: 1, RadioRange: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh KeyStore so every key derivation and schedule build happens
	// during the concurrent phase.
	keys := mac.NewKeyStore([]byte(t.Name()))
	rng := rand.New(rand.NewSource(77))
	scheme := marking.PNM{P: 0.4}
	nodes := topo.Nodes()
	var stream []packet.Message
	for s := 0; s < 6; s++ {
		src := nodes[rng.Intn(len(nodes))]
		msg := packet.Message{Report: packet.Report{Event: rng.Uint32(), Seq: uint32(s)}}
		for _, hop := range topo.Forwarders(src) {
			msg = scheme.Mark(hop, keys.Key(hop), msg, rng)
		}
		for rep := 0; rep < 8; rep++ {
			stream = append(stream, msg)
		}
	}

	// Two pipelines sharing one KeyStore, run concurrently from two
	// goroutines, each folding into its own tracker.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			factory := func() Verifier {
				v, err := NewVerifier(scheme, keys, topo.NumNodes(), NewExhaustiveResolver(keys, topo.Nodes()))
				if err != nil {
					panic(err)
				}
				return v
			}
			serialV, err := NewVerifier(scheme, keys, topo.NumNodes(), NewExhaustiveResolver(keys, topo.Nodes()))
			if err != nil {
				panic(err)
			}
			pipe := NewPipeline(8, factory, NewTracker(serialV, topo))
			defer pipe.Close()
			for i := 0; i < 4; i++ {
				pipe.Observe(stream, nil)
			}
			if got := pipe.Tracker().Packets(); got != 4*len(stream) {
				panic(fmt.Sprintf("tracker folded %d packets, want %d", got, 4*len(stream)))
			}
		}()
	}
	wg.Wait()
}
