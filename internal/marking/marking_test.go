package marking

import (
	"math/rand"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/packet"
)

var testKS = mac.NewKeyStore([]byte("marking-test"))

func testReport() packet.Report {
	return packet.Report{Event: 7, Location: 9, Timestamp: 100, Seq: 1}
}

func TestNestedAppendsOneMarkPerHop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msg := packet.Message{Report: testReport()}
	path := []packet.NodeID{5, 4, 3, 2, 1}
	for _, id := range path {
		msg = Nested{}.Mark(id, testKS.Key(id), msg, rng)
	}
	if len(msg.Marks) != len(path) {
		t.Fatalf("marks = %d, want %d", len(msg.Marks), len(path))
	}
	for i, mk := range msg.Marks {
		if mk.ID != path[i] || mk.Anonymous {
			t.Fatalf("mark %d = %+v, want plaintext ID %v", i, mk, path[i])
		}
	}
}

func TestNestedMACCoversUpstream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msg := packet.Message{Report: testReport()}
	msg = Nested{}.Mark(3, testKS.Key(3), msg, rng)
	msg = Nested{}.Mark(2, testKS.Key(2), msg, rng)

	// Node 2's MAC must be recomputable from the prefix it received.
	want := NestedMACPlain(testKS.Key(2), msg, 1, 2)
	if !mac.Equal(msg.Marks[1].MAC, want) {
		t.Fatal("nested MAC does not verify against the received prefix")
	}

	// Tampering with node 3's mark must invalidate node 2's MAC.
	tampered := msg.Clone()
	tampered.Marks[0].MAC[0] ^= 1
	got := NestedMACPlain(testKS.Key(2), tampered, 1, 2)
	if mac.Equal(tampered.Marks[1].MAC, got) {
		t.Fatal("nested MAC survived upstream tampering")
	}
}

func TestNestedDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msg := packet.Message{Report: testReport()}
	msg = Nested{}.Mark(3, testKS.Key(3), msg, rng)
	before := msg.Marks[0]
	_ = Nested{}.Mark(2, testKS.Key(2), msg, rng)
	if msg.Marks[0] != before || len(msg.Marks) != 1 {
		t.Fatal("Mark mutated its input message")
	}
}

func TestPNMMarksAreAnonymous(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	msg := packet.Message{Report: testReport()}
	msg = PNM{P: 1}.Mark(4, testKS.Key(4), msg, rng)
	if len(msg.Marks) != 1 {
		t.Fatalf("marks = %d, want 1", len(msg.Marks))
	}
	mk := msg.Marks[0]
	if !mk.Anonymous || mk.ID != 0 {
		t.Fatalf("mark = %+v, want anonymous", mk)
	}
	if want := mac.AnonID(testKS.Key(4), msg.Report, 4); mk.AnonID != want {
		t.Fatal("anonymous ID does not match H'_k(M|i)")
	}
	if want := NestedMACAnon(testKS.Key(4), packet.Message{Report: msg.Report}, 0, mk.AnonID); !mac.Equal(mk.MAC, want) {
		t.Fatal("PNM MAC does not verify")
	}
}

func TestPNMAnonIDChangesPerReport(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r1 := testReport()
	r2 := testReport()
	r2.Seq = 2
	m1 := PNM{P: 1}.Mark(4, testKS.Key(4), packet.Message{Report: r1}, rng)
	m2 := PNM{P: 1}.Mark(4, testKS.Key(4), packet.Message{Report: r2}, rng)
	if m1.Marks[0].AnonID == m2.Marks[0].AnonID {
		t.Fatal("anonymous ID is static across reports; moles could learn the mapping")
	}
}

func TestProbabilisticMarkingRate(t *testing.T) {
	tests := []struct {
		name   string
		scheme Scheme
	}{
		{"pnm", PNM{P: 0.3}},
		{"naive", NaiveProbNested{P: 0.3}},
		{"ams", AMS{P: 0.3}},
		{"ppm", PPM{P: 0.3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			const trials = 20000
			marked := 0
			for i := 0; i < trials; i++ {
				msg := packet.Message{Report: testReport()}
				out := tt.scheme.Mark(7, testKS.Key(7), msg, rng)
				marked += len(out.Marks)
			}
			rate := float64(marked) / trials
			if rate < 0.28 || rate > 0.32 {
				t.Fatalf("marking rate = %.3f, want ~0.30", rate)
			}
		})
	}
}

func TestAMSMACIgnoresUpstreamMarks(t *testing.T) {
	// The structural weakness: AMS MACs stay valid no matter how upstream
	// marks are tampered with.
	rng := rand.New(rand.NewSource(5))
	msg := packet.Message{Report: testReport()}
	msg = AMS{P: 1}.Mark(3, testKS.Key(3), msg, rng)
	msg = AMS{P: 1}.Mark(2, testKS.Key(2), msg, rng)

	tampered := msg.Clone()
	tampered.Marks[0].ID = 999
	tampered.Marks[0].MAC[0] ^= 0xFF
	if want := AMSMAC(testKS.Key(2), tampered.Report, 2); !mac.Equal(tampered.Marks[1].MAC, want) {
		t.Fatal("AMS MAC unexpectedly depends on upstream marks")
	}
}

func TestPPMMarksCarryNoMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	msg := PPM{P: 1}.Mark(9, testKS.Key(9), packet.Message{Report: testReport()}, rng)
	if msg.Marks[0].MAC != ([packet.MACLen]byte{}) {
		t.Fatal("PPM mark carries a MAC")
	}
}

func TestNoneNeverMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	msg := None{}.Mark(9, testKS.Key(9), packet.Message{Report: testReport()}, rng)
	if len(msg.Marks) != 0 {
		t.Fatal("None marked a packet")
	}
}

func TestNewFactory(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, 0.3)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := New("bogus", 0.3); err == nil {
		t.Fatal("want error for unknown scheme")
	}
}

func TestWireOverheadPerScheme(t *testing.T) {
	// PNM marks (1+4+8 bytes) are wider than plain marks (1+2+8) — the
	// anonymity overhead the design pays for selective-drop resistance.
	rng := rand.New(rand.NewSource(8))
	base := packet.Message{Report: testReport()}
	plain := Nested{}.Mark(3, testKS.Key(3), base, rng)
	anon := PNM{P: 1}.Mark(3, testKS.Key(3), base, rng)
	if plainSz, anonSz := plain.WireSize(), anon.WireSize(); anonSz != plainSz+2 {
		t.Fatalf("plain mark %dB vs anon mark %dB, want +2", plainSz, anonSz)
	}
}

// TestSchedVariantsMatchCold pins that the schedule-backed MAC
// constructions the sink hot path uses are bit-identical to the cold
// (one-shot SHA-256) node-side ones, and that the shared encode buffer carries
// no state between calls.
func TestSchedVariantsMatchCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	msg := packet.Message{Report: testReport()}
	for _, hop := range []packet.NodeID{5, 4, 3, 2} {
		msg = PNM{P: 1}.Mark(hop, testKS.Key(hop), msg, rng)
	}

	var buf []byte
	for k := 0; k <= len(msg.Marks); k++ {
		for _, id := range []packet.NodeID{1, 9} {
			s := mac.NewSchedule(testKS.Key(id))
			var got [packet.MACLen]byte
			anon := mac.AnonID(testKS.Key(id), msg.Report, id)
			got, buf = NestedMACAnonSched(s, buf, msg, k, anon)
			if want := NestedMACAnon(testKS.Key(id), msg, k, anon); got != want {
				t.Fatalf("NestedMACAnonSched(k=%d, id=%v) = %x, want %x", k, id, got, want)
			}
			got, buf = AMSMACSched(s, buf, msg.Report, id)
			if want := AMSMAC(testKS.Key(id), msg.Report, id); got != want {
				t.Fatalf("AMSMACSched(id=%v) = %x, want %x", id, got, want)
			}
		}
	}
}

// TestPNMMarkSchedMatchesMark pins the in-place sched marking path: for
// identical RNG streams it must make the same mark/skip decisions and
// emit byte-identical marks to the clone-per-mark Mark path.
func TestPNMMarkSchedMatchesMark(t *testing.T) {
	scheme := PNM{P: 0.5}
	rngA := rand.New(rand.NewSource(42))
	rngB := rand.New(rand.NewSource(42))
	hops := []packet.NodeID{9, 7, 5, 3, 2}

	want := packet.Message{Report: testReport()}
	got := packet.Message{Report: testReport()}
	var buf []byte
	for _, id := range hops {
		want = scheme.Mark(id, testKS.Key(id), want, rngA)
		buf = scheme.MarkSched(mac.NewSchedule(testKS.Key(id)), buf, &got, id, rngB)
		if string(got.Encode(nil)) != string(want.Encode(nil)) {
			t.Fatalf("after hop %v: MarkSched message diverged from Mark", id)
		}
	}
	if len(want.Marks) == 0 || len(want.Marks) == len(hops) {
		t.Fatalf("want a mix of marks and skips, got %d of %d", len(want.Marks), len(hops))
	}

	// The in-place path must not consume RNG draws on skip differently.
	if a, b := rngA.Uint64(), rngB.Uint64(); a != b {
		t.Fatalf("RNG streams diverged after marking: %d vs %d", a, b)
	}
}
