package transport

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// markedStream builds count fully marked messages on an n-node chain under
// PNM with p=1 (every hop marks every packet, so the verified chain — and
// therefore the order matrix — is identical from the first packet on) and
// frames them into one wire stream.
func markedStream(t *testing.T, keys *mac.KeyStore, n, count int) []byte {
	t.Helper()
	topo, err := topology.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	scheme := marking.PNM{P: 1}
	rng := rand.New(rand.NewSource(11))
	var stream []byte
	for i := 0; i < count; i++ {
		msg := packet.Message{Report: packet.Report{Event: 0xAB, Location: 7, Seq: uint32(i + 1)}}
		for _, id := range topo.Forwarders(packet.NodeID(n)) {
			msg = scheme.Mark(id, keys.Key(id), msg, rng)
		}
		stream = AppendFrame(stream, msg)
	}
	return stream
}

// TestFrameDecodeZeroAlloc pins the // pnmlint:noalloc contract on the two
// ingest decode paths dynamically, complementing the static escape-analysis
// gate: once the reader's payload buffer and the message's mark storage have
// reached steady state, decoding a frame — streamed or datagram — allocates
// nothing.
func TestFrameDecodeZeroAlloc(t *testing.T) {
	keys := mac.NewKeyStore([]byte("frame-alloc-pin"))

	t.Run("stream", func(t *testing.T) {
		const warmup, runs = 16, 200
		stream := markedStream(t, keys, 9, warmup+runs+1)
		fr := NewFrameReader(bytes.NewReader(stream), Limits{})
		var msg packet.Message
		for i := 0; i < warmup; i++ {
			if err := fr.Next(&msg); err != nil {
				t.Fatalf("warm-up frame %d: %v", i, err)
			}
		}
		if allocs := testing.AllocsPerRun(runs, func() {
			if err := fr.Next(&msg); err != nil {
				t.Fatalf("Next: %v", err)
			}
		}); allocs != 0 {
			t.Errorf("FrameReader.Next allocates %.2f times per frame, want 0", allocs)
		}
	})

	t.Run("datagram", func(t *testing.T) {
		stream := markedStream(t, keys, 9, 1)
		var msg packet.Message
		if err := DecodeDatagramInto(&msg, stream, Limits{}); err != nil {
			t.Fatalf("warm-up decode: %v", err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if err := DecodeDatagramInto(&msg, stream, Limits{}); err != nil {
				t.Fatalf("DecodeDatagramInto: %v", err)
			}
		}); allocs != 0 {
			t.Errorf("DecodeDatagramInto allocates %.2f times per datagram, want 0", allocs)
		}
	})
}

// TestFrameReaderPayloadRetention pins the steady-cap rule: one
// near-limit frame must not leave its payload buffer pinned on the reader
// for the connection's lifetime. The oversized read is served from a
// transient buffer, so cap(fr.payload) stays within steadyPayloadBytes,
// and the reader keeps decoding normally afterwards.
func TestFrameReaderPayloadRetention(t *testing.T) {
	big := packet.Message{Report: packet.Report{Event: 1}}
	for i := 0; i < DefaultMaxMarks; i++ {
		big.Marks = append(big.Marks, packet.Mark{ID: packet.NodeID(i + 1)})
	}
	small := packet.Message{Report: packet.Report{Event: 2},
		Marks: []packet.Mark{{ID: 3}}}

	frame := AppendFrame(nil, big)
	if payload := len(frame) - FrameHeaderLen; payload <= steadyPayloadBytes {
		t.Fatalf("test frame payload %d bytes does not exceed the steady cap %d",
			payload, steadyPayloadBytes)
	}
	stream := AppendFrame(frame, small)

	fr := NewFrameReader(bytes.NewReader(stream), Limits{})
	var msg packet.Message
	if err := fr.Next(&msg); err != nil {
		t.Fatalf("oversized frame: %v", err)
	}
	if len(msg.Marks) != DefaultMaxMarks {
		t.Fatalf("oversized frame decoded %d marks, want %d", len(msg.Marks), DefaultMaxMarks)
	}
	if cap(fr.payload) > steadyPayloadBytes {
		t.Fatalf("reader retains %d payload bytes after an oversized frame, steady cap is %d",
			cap(fr.payload), steadyPayloadBytes)
	}
	if err := fr.Next(&msg); err != nil {
		t.Fatalf("frame after oversized frame: %v", err)
	}
	if msg.Report.Event != 2 || len(msg.Marks) != 1 {
		t.Fatalf("frame after oversized frame decoded wrong: %+v", msg)
	}
}

// TestVerifyPathZeroAllocEndToEnd pins the whole ingest hot path — frame
// decode, per-mark verification through the topology resolver, and the
// order-matrix fold — at zero allocations per packet once warm. This is
// the dynamic counterpart of the zero-copy ownership design (DESIGN.md):
// after the schedule caches, the chain arena, the resolver's BFS buffers
// and the order matrix have converged, a packet crosses the entire sink
// path without touching the heap. The matched case runs the server's
// split: a reader's PathProber matches the frame, then Host.Fold checks
// the matches and resolves the rest.
func TestVerifyPathZeroAllocEndToEnd(t *testing.T) {
	t.Run("observe", testVerifyPathZeroAlloc)
	t.Run("matched", testMatchedPathZeroAlloc)
}

// testMatchedPathZeroAlloc pins decode, probe, matched verify, fold and
// publish at zero allocations per frame once warm. The frames name node
// 7 as their Location on a 9-node chain, so the reader matches the seven
// marks below it and the sink's resolver finds the eighth.
func testMatchedPathZeroAlloc(t *testing.T) {
	const n, warmup, runs = 9, 32, 200
	keys := mac.NewKeyStore([]byte("frame-alloc-pin"))
	stream := markedStream(t, keys, n, warmup+runs+1)
	topo, err := topology.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	h := sink.NewHost(func() sink.Verifier {
		v, err := sink.NewVerifier(marking.PNM{P: 1}, keys, topo.NumNodes(), sink.NewTopologyResolver(keys, topo))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}, topo, reg)
	prober := h.NewProber()
	if prober == nil {
		t.Fatal("a PNM chain over a topology resolver has no prober")
	}
	fr := NewFrameReader(bytes.NewReader(stream), Limits{})
	var f frame
	step := func() bool {
		if err := fr.Next(&f.msg); err != nil {
			t.Fatalf("Next: %v", err)
		}
		prober.Probe(&f.msg, 0, &f.matches)
		ok := h.Fold(f.msg, 0, &f.matches)
		h.Publish(1)
		return ok
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	dropped := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		if !step() {
			dropped++
		}
	}); allocs != 0 {
		t.Errorf("decode+probe+matched verify+fold allocates %.2f times per packet, want 0", allocs)
	}
	if dropped > 0 {
		t.Errorf("a live host dropped %d frames", dropped)
	}
	frames := uint64(warmup + runs + 1)
	if got := reg.Counter("transport.prober.marks_matched").Value(); got != 7*frames {
		t.Errorf("reader matched %d marks over %d frames, want 7 a frame", got, frames)
	}
	if got, want := reg.Counter("sink.verify.marks_verified").Value(), 8*frames; got != want {
		t.Errorf("sink verified %d marks, want %d", got, want)
	}
	if v := h.Verdict(); !v.HasStop || !v.Identified {
		t.Errorf("verdict after pinned run: %+v", v)
	}
}

func testVerifyPathZeroAlloc(t *testing.T) {
	const n, warmup, runs = 9, 32, 200
	keys := mac.NewKeyStore([]byte("frame-alloc-pin"))
	stream := markedStream(t, keys, n, warmup+runs+1)

	topo, err := topology.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	resolver := sink.NewTopologyResolver(keys, topo)
	verifier, err := sink.NewVerifier(marking.PNM{P: 1}, keys, topo.NumNodes(), resolver)
	if err != nil {
		t.Fatal(err)
	}
	tracker := sink.NewTracker(verifier, topo)

	fr := NewFrameReader(bytes.NewReader(stream), Limits{})
	var msg packet.Message
	for i := 0; i < warmup; i++ {
		if err := fr.Next(&msg); err != nil {
			t.Fatalf("warm-up frame %d: %v", i, err)
		}
		if res := tracker.Observe(msg, 0); res.Stopped || len(res.Chain) != len(msg.Marks) {
			t.Fatalf("warm-up packet %d: chain %d/%d marks, stopped=%v",
				i, len(res.Chain), len(msg.Marks), res.Stopped)
		}
	}
	stopped := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		if err := fr.Next(&msg); err != nil {
			t.Fatalf("Next: %v", err)
		}
		if res := tracker.Observe(msg, 0); res.Stopped {
			stopped++
		}
	}); allocs != 0 {
		t.Errorf("decode+verify+fold allocates %.2f times per packet, want 0", allocs)
	}
	if stopped > 0 {
		t.Errorf("verification stopped on %d valid packets", stopped)
	}
	if v := tracker.Verdict(); !v.HasStop || !v.Identified {
		t.Errorf("verdict after pinned run: %+v", v)
	}
}

// TestQueueItemSize pins the ingest queue's element at 24 bytes: the
// reader's matches ride in the pooled frame the item points to, not in
// the item the queue copies per frame.
func TestQueueItemSize(t *testing.T) {
	if got := unsafe.Sizeof(item{}); got != 24 {
		t.Fatalf("queue item is %d bytes, want 24", got)
	}
}
