package sink

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pnm/internal/marking"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

func TestOrderCheckpointRoundTrip(t *testing.T) {
	o := NewOrder()
	o.AddChain([]packet.NodeID{5, 3, 1})
	o.AddChain([]packet.NodeID{4, 3})
	o.AddChain([]packet.NodeID{9})

	restored, err := RestoreOrder(o.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if restored.SeenCount() != o.SeenCount() {
		t.Fatalf("SeenCount = %d, want %d", restored.SeenCount(), o.SeenCount())
	}
	for _, a := range o.Seen() {
		for _, b := range o.Seen() {
			if o.Upstream(a, b) != restored.Upstream(a, b) {
				t.Fatalf("relation %v->%v lost in round trip", a, b)
			}
		}
	}
	if got, want := restored.Minimals(), o.Minimals(); len(got) != len(want) {
		t.Fatalf("Minimals = %v, want %v", got, want)
	}
}

func TestOrderCheckpointRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	f := func(seed int64) bool {
		runRng := rand.New(rand.NewSource(seed))
		o := NewOrder()
		for c := 0; c < 8; c++ {
			n := 1 + runRng.Intn(5)
			chain := make([]packet.NodeID, n)
			for i := range chain {
				chain[i] = packet.NodeID(1 + runRng.Intn(20))
			}
			o.AddChain(chain)
		}
		restored, err := RestoreOrder(o.Checkpoint())
		if err != nil {
			return false
		}
		if restored.TotallyOrdered() != o.TotallyOrdered() {
			return false
		}
		if restored.HasCycle() != o.HasCycle() {
			return false
		}
		for _, a := range o.Seen() {
			for _, b := range o.Seen() {
				if o.Upstream(a, b) != restored.Upstream(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreOrderRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("nope"),
		[]byte("PNM1\x00\x00\x00\x05"), // truncated identities
		append([]byte("PNM1\x00\x00\x00\x00"), 0, 0, 0, 9), // pair count with no pairs
	}
	for i, c := range cases {
		if _, err := RestoreOrder(c); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestTrackerCheckpointResumesTraceback(t *testing.T) {
	// Observe half the traffic, checkpoint, restore into a fresh tracker,
	// observe the rest: the verdict must match a tracker that saw it all.
	topo, err := topology.NewChain(11)
	if err != nil {
		t.Fatal(err)
	}
	scheme := marking.PNM{P: 0.3}
	resolver := NewExhaustiveResolver(testKS, topo.Nodes())
	newVerifier := func() Verifier {
		v, err := NewVerifier(scheme, testKS, topo.NumNodes(), resolver)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	rng := rand.New(rand.NewSource(7))
	full := NewTracker(newVerifier(), topo)
	half := NewTracker(newVerifier(), topo)

	deliver := func(tr ...*Tracker) {
		msg := packet.Message{Report: testReport(rng.Uint32())}
		for _, id := range topo.Forwarders(11) {
			msg = scheme.Mark(id, testKS.Key(id), msg, rng)
		}
		for _, x := range tr {
			x.Observe(msg, 0)
		}
	}
	for i := 0; i < 100; i++ {
		deliver(full, half)
	}
	restored, err := RestoreTracker(half.Checkpoint(), newVerifier(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Packets() != 100 {
		t.Fatalf("restored packets = %d", restored.Packets())
	}
	for i := 0; i < 100; i++ {
		deliver(full, restored)
	}
	vf, vr := full.Verdict(), restored.Verdict()
	if vf.Stop != vr.Stop || vf.Identified != vr.Identified {
		t.Fatalf("restored verdict %+v differs from continuous %+v", vr, vf)
	}
}

// TestTrackerCheckpointExactRoundTrip pins the PNM2 format against a live
// tracker: the restored instance must agree exactly — packet count, every
// pairwise order relation, candidates, and the verdict — with the one it
// was snapshotted from.
func TestTrackerCheckpointExactRoundTrip(t *testing.T) {
	topo, err := topology.NewChain(9)
	if err != nil {
		t.Fatal(err)
	}
	scheme := marking.PNM{P: 0.4}
	newVerifier := func() Verifier {
		v, err := NewVerifier(scheme, testKS, topo.NumNodes(), NewExhaustiveResolver(testKS, topo.Nodes()))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	rng := rand.New(rand.NewSource(23))
	live := NewTracker(newVerifier(), topo)
	for i := 0; i < 77; i++ {
		msg := packet.Message{Report: testReport(rng.Uint32())}
		for _, id := range topo.Forwarders(9) {
			msg = scheme.Mark(id, testKS.Key(id), msg, rng)
		}
		live.Observe(msg, 0)
	}

	blob := live.Checkpoint()
	if [4]byte(blob[:4]) != trackerMagic {
		t.Fatalf("checkpoint leads with %q, want PNM2", blob[:4])
	}
	restored, err := RestoreTracker(blob, newVerifier(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Packets() != live.Packets() {
		t.Fatalf("Packets() = %d, want %d", restored.Packets(), live.Packets())
	}
	if got, want := restored.Order().SeenCount(), live.Order().SeenCount(); got != want {
		t.Fatalf("SeenCount = %d, want %d", got, want)
	}
	for _, a := range live.Order().Seen() {
		for _, b := range live.Order().Seen() {
			if live.Order().Upstream(a, b) != restored.Order().Upstream(a, b) {
				t.Fatalf("relation %v->%v lost in round trip", a, b)
			}
		}
	}
	if !reflect.DeepEqual(restored.Candidates(), live.Candidates()) {
		t.Fatalf("Candidates = %v, want %v", restored.Candidates(), live.Candidates())
	}
	if !reflect.DeepEqual(restored.Verdict(), live.Verdict()) {
		t.Fatalf("Verdict = %+v, want %+v", restored.Verdict(), live.Verdict())
	}
	// A second snapshot of the restored tracker is byte-identical.
	if !reflect.DeepEqual(restored.Checkpoint(), blob) {
		t.Fatal("re-checkpoint of the restored tracker differs")
	}
}

// TestRestoreTrackerRejectsPNM1 feeds RestoreTracker a bare order
// checkpoint: it carries no packet count, so it is not a tracker blob.
func TestRestoreTrackerRejectsPNM1(t *testing.T) {
	o := NewOrder()
	o.AddChain([]packet.NodeID{4, 2, 1})
	o.AddChain([]packet.NodeID{3, 2})

	if _, err := RestoreTracker(o.Checkpoint(), nil, nil); err == nil {
		t.Fatal("bare PNM1 order checkpoint accepted as a tracker")
	}
}

func TestRestoreTrackerRejectsShortData(t *testing.T) {
	if _, err := RestoreTracker([]byte{1, 2}, nil, nil); err == nil {
		t.Fatal("short data accepted")
	}
	if _, err := RestoreTracker([]byte("PNM2\x00\x00\x00\x00"), nil, nil); err == nil {
		t.Fatal("truncated PNM2 count accepted")
	}
	if _, err := RestoreTracker([]byte("PNMX01234567"), nil, nil); err == nil {
		t.Fatal("unknown magic accepted")
	}
}
