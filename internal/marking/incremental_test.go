package marking

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pnm/internal/packet"
)

// TestIncrementalEquivalenceProperty: marking a path with Incremental
// produces byte-identical messages to the per-hop Scheme.Mark calls, and
// draws the same coins, for every scheme and any seed.
func TestIncrementalEquivalenceProperty(t *testing.T) {
	var schemes []Scheme
	for _, name := range Names() {
		s, err := New(name, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, s)
	}
	f := func(seed int64, hops uint8) bool {
		n := int(hops%24) + 1
		rep := packet.Report{Event: uint32(seed), Seq: uint32(hops)}
		for _, s := range schemes {
			rngA := rand.New(rand.NewSource(seed))
			rngB := rand.New(rand.NewSource(seed))

			slow := packet.Message{Report: rep}
			inc := NewIncremental(rep)
			for i := n; i >= 1; i-- {
				id := packet.NodeID(i)
				slow = s.Mark(id, testKS.Key(id), slow, rngA)
				inc.Apply(s, id, testKS.Key(id), rngB)
			}
			fast := inc.Message()
			if !reflect.DeepEqual(normalize(slow), normalize(fast)) {
				return false
			}
			if inc.WireSize() != slow.WireSize() || rngA.Int63() != rngB.Int63() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// normalize maps empty mark slices to nil for DeepEqual.
func normalize(m packet.Message) packet.Message {
	if len(m.Marks) == 0 {
		m.Marks = nil
	}
	return m
}

func TestIncrementalMessageIsCopy(t *testing.T) {
	inc := NewIncremental(packet.Report{Event: 1})
	inc.Apply(Nested{}, 2, testKS.Key(2), nil)
	a := inc.Message()
	a.Marks[0].ID = 99
	if b := inc.Message(); b.Marks[0].ID != 2 {
		t.Fatal("Message aliases internal mark storage")
	}
}

// BenchmarkIncrementalVsNaive quantifies the O(n) vs O(n^2) marking cost
// over a 30-hop path.
func BenchmarkIncrementalVsNaive(b *testing.B) {
	const n = 30
	rep := packet.Report{Event: 9}
	b.Run("scheme-mark", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(1))
			msg := packet.Message{Report: rep}
			for j := n; j >= 1; j-- {
				msg = Nested{}.Mark(packet.NodeID(j), testKS.Key(packet.NodeID(j)), msg, rng)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inc := NewIncremental(rep)
			for j := n; j >= 1; j-- {
				inc.Apply(Nested{}, packet.NodeID(j), testKS.Key(packet.NodeID(j)), nil)
			}
		}
	})
}

func TestResumeContinuesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Start with the slow path, resume incrementally, compare against the
	// fully slow path.
	rep := packet.Report{Event: 4, Seq: 7}
	slow := packet.Message{Report: rep}
	for _, id := range []packet.NodeID{9, 8} {
		slow = Nested{}.Mark(id, testKS.Key(id), slow, rng)
	}
	inc := Resume(slow)
	inc.Apply(Nested{}, 7, testKS.Key(7), rng)
	fast := inc.Message()

	want := Nested{}.Mark(7, testKS.Key(7), slow, rng)
	if !reflect.DeepEqual(want, fast) {
		t.Fatalf("Resume chain diverged:\n want %+v\n got %+v", want, fast)
	}
}

// TestForgeMatchesMarkAtPOne: a forged mark is the scheme's own mark with
// the coin taken away, so for every scheme that marks at all, Forge
// equals Mark at P = 1 on any message.
func TestForgeMatchesMarkAtPOne(t *testing.T) {
	f := func(seed int64, hops uint8, id uint16) bool {
		rep := packet.Report{Event: uint32(seed), Seq: uint32(hops)}
		rng := rand.New(rand.NewSource(seed))
		base := packet.Message{Report: rep}
		for i := int(hops % 12); i >= 1; i-- {
			base = PNM{P: 0.5}.Mark(packet.NodeID(i+100), testKS.Key(packet.NodeID(i+100)), base, rng)
			base = Nested{}.Mark(packet.NodeID(i+200), testKS.Key(packet.NodeID(i+200)), base, rng)
		}
		node := packet.NodeID(id%4000 + 1)
		for _, name := range Names() {
			if name == "none" {
				continue
			}
			s, err := New(name, 1)
			if err != nil {
				return false
			}
			want := s.Mark(node, testKS.Key(node), base, rng)
			got := Forge(s, node, testKS.Key(node), base)
			if !reflect.DeepEqual(want, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
