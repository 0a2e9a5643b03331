package sink

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// fuzzInput hands out a fuzz input's bytes, then zeros.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// fuzzTampers are the forwarding mole's strategies a fuzz input picks
// from.
var fuzzTampers = [][]mole.Tamper{
	nil,
	{mole.RemoveFirst{N: 1}},
	{mole.RemoveAll{}},
	{mole.Reorder{Reverse: true}},
	{mole.Reorder{}},
	{mole.Alter{First: 1}},
	{mole.InsertFake{N: 2}},
	{mole.RemoveFirst{N: 2}, mole.InsertFake{N: 1}},
}

// sameVerdict reports whether two verdicts are equal field by field.
func sameVerdict(a, b Verdict) bool {
	return a.HasStop == b.HasStop && a.Stop == b.Stop && a.Identified == b.Identified &&
		slices.Equal(a.Suspects, b.Suspects) && slices.Equal(a.Loop, b.Loop)
}

// FuzzSinkMatchesReference checks the whole sink against the plain
// reference of reference_test.go. It decodes its input into a field of
// at most 60 nodes, a Rewire schedule of up to four rewires, a marking
// scheme (PNM with its probability, or plaintext nested marking), a
// source with its Location (honest, another node's, out of range or
// zero), a forwarding mole's tamper strategy and marking conduct, and up
// to 64 packets, each marked in one epoch and stamped with another and
// some replayed. Every packet goes through four tracker chains, each
// keeping its own resolver state across the sequence: one over a
// TopologyResolver, one over a TopologyResolver fed a reader
// resolver's Probe matches, one over a TopologyResolver fed forged matches
// that name each mark's true marker wherever it sits, and one over the
// ExhaustiveResolver. The first three must accept the reference's chain
// when its candidates are the stamped epoch's subtrees; the exhaustive
// chain must accept the reference's chain when every node is a
// candidate (the base method, which also takes a genuine mark from
// outside the previous marker's subtree). After every packet each
// tracker's order (the nodes seen and every upstream pair of the
// closure) and its Verdict must equal its reference's.
func FuzzSinkMatchesReference(f *testing.F) {
	f.Add([]byte{52, 3, 1, 0, 0, 0, 9, 7, 0, 0, 0, 0, 10})
	f.Add([]byte{40, 7, 3, 2, 11, 23, 2, 0, 5, 1, 6, 9, 12, 5, 0x12, 0x81, 0x42, 0x0A, 0xC3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		n := 8 + int(in.next())%53
		seed := int64(in.next())
		topo, err := topology.NewRandomGeometric(topology.GeometricConfig{
			Nodes: n, Side: 4, RadioRange: 1.2 + float64(in.next()%8)/10, Seed: seed, SinkAtCorner: true,
		})
		if err != nil {
			return
		}
		nets := []*topology.Network{topo}
		for e := int(in.next() % 5); e > 0; e-- {
			nets = append(nets, nets[len(nets)-1].Rewire(int64(in.next())))
		}
		set := pinnedEpochs(t, topo, nets[1:]...)
		p := []float64{1, 0.5, 0.25}[in.next()%3]
		var scheme marking.Scheme = marking.PNM{P: p}
		if in.next()%2 == 1 {
			scheme = marking.Nested{}
		}
		nodes := topo.Nodes()
		src := nodes[int(in.next())%len(nodes)]
		moleID := nodes[int(in.next())%len(nodes)]
		partner := nodes[int(in.next())%len(nodes)]
		var loc uint32
		switch b := in.next(); b % 4 {
		case 0:
			loc = uint32(src)
		case 1:
			loc = uint32(nodes[int(b>>2)%len(nodes)])
		case 2:
			loc = uint32(n + 1 + int(b>>2))
		}
		env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{
			src: testKS.Key(src), moleID: testKS.Key(moleID), partner: testKS.Key(partner),
		}}
		conduct := in.next()
		source := &mole.Source{
			ID: src, Base: packet.Report{Event: 0xF00D, Location: loc},
			Behavior: []mole.MarkBehavior{mole.MarkNever, mole.MarkHonest}[conduct%2], FakeMarks: int(conduct>>1) % 2,
		}
		fw := &mole.Forwarder{
			ID: moleID, SwapPartner: partner, Tampers: fuzzTampers[int(conduct>>2)%len(fuzzTampers)],
			Behavior: []mole.MarkBehavior{mole.MarkHonest, mole.MarkNever, mole.MarkSwap}[int(conduct>>5)%3],
		}

		key := func(id packet.NodeID) [16]byte { return testKS.Key(id) }
		_, anonymous := scheme.(marking.PNM)
		ref := &refSink{key: key, field: topo, anonymous: anonymous, at: func(v topology.EpochVersion) *topology.Network { return nets[v] }}
		refAll := &refSink{key: key, field: topo, anonymous: anonymous}
		chain := func(r Resolver) (*NestedVerifier, *Tracker) {
			v, err := NewVerifier(scheme, testKS, n, r)
			if err != nil {
				t.Fatal(err)
			}
			return v.(*NestedVerifier), NewTracker(v, topo)
		}
		_, plain := chain(NewTopologyResolverEpochs(testKS, set))
		matchedV, matched := chain(NewTopologyResolverEpochs(testKS, set))
		forgedV, forged := chain(NewTopologyResolverEpochs(testKS, set))
		_, exhaustive := chain(NewExhaustiveResolver(testKS, nodes))
		prober := NewTopologyResolverEpochs(testKS, set)

		rng := rand.New(rand.NewSource(seed))
		var replays mole.Replayer
		var m Matches
	packets:
		for i, count := 0, 1+int(in.next()%64); i < count; i++ {
			b := in.next()
			marked, stamped := int(b&7)%len(nets), topology.EpochVersion(int(b>>3&7)%len(nets))
			msg := source.Next(env, rng)
			for _, hop := range nets[marked].Forwarders(src) {
				if hop != moleID {
					msg = scheme.Mark(hop, testKS.Key(hop), msg, rng)
					continue
				}
				var ok bool
				if msg, ok = fw.Process(msg, env, rng); !ok {
					continue packets
				}
			}
			if b&0x40 != 0 {
				replays.Capture(msg)
			}
			if b&0x80 != 0 {
				msg, _ = replays.Next()
			}
			want, wantAll := ref.observe(msg, stamped), refAll.observe(msg, stamped)
			check := func(name string, got Result, tr *Tracker, want refView) {
				t.Helper()
				if !sameResult(got, want.res) {
					t.Fatalf("packet %d (marked in epoch %d, stamped %d, Location %d, matches %v): %s chain %+v, reference %+v",
						i, marked, stamped, loc, m.ids, name, got, want.res)
				}
				o := tr.Order()
				if seen := o.Seen(); !slices.Equal(seen, want.seen) {
					t.Fatalf("packet %d: %s order has seen %v, reference %v", i, name, seen, want.seen)
				}
				for x, a := range want.seen {
					for y, b := range want.seen {
						if o.Upstream(a, b) != want.up[x][y] {
							t.Fatalf("packet %d: %s order has %v upstream of %v %v, reference %v", i, name, a, b, o.Upstream(a, b), want.up[x][y])
						}
					}
				}
				if v := tr.Verdict(); !sameVerdict(v, want.verdict) {
					t.Fatalf("packet %d (marked in epoch %d, stamped %d): %s verdict %+v, reference %+v", i, marked, stamped, name, v, want.verdict)
				}
			}
			check("topology", plain.Observe(msg, stamped), plain, want)
			prober.Probe(&msg, stamped, &m)
			res := matchedV.verify(msg, stamped, &m)
			matched.Fold(res)
			check("matched", res, matched, want)
			// Matches naming each mark's true marker wherever it sits, the
			// base method's chain, must change no chain either.
			forgedM := Matches{ids: slices.Clone(wantAll.res.Chain)}
			slices.Reverse(forgedM.ids)
			res = forgedV.verify(msg, stamped, &forgedM)
			forged.Fold(res)
			check("forged-matched", res, forged, want)
			check("exhaustive", exhaustive.Observe(msg, stamped), exhaustive, wantAll)
		}
	})
}

// TestReferenceImportsStayPlain holds the reference to what makes it a
// reference: reference_test.go imports only the standard library, the
// packet wire types and the topology field, and of this package's own
// code names only the Result and Verdict it returns. A reference that
// called the code it checks would agree with every fault in it.
func TestReferenceImportsStayPlain(t *testing.T) {
	fset := token.NewFileSet()
	ref, err := parser.ParseFile(fset, "reference_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range ref.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(path, "/")
		if path != "pnm/internal/packet" && path != "pnm/internal/topology" && (first == "pnm" || strings.Contains(first, ".")) {
			t.Errorf("reference_test.go imports %q", path)
		}
	}
	// The package's own top-level names, from its non-test files.
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	own := map[string]bool{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					own[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						own[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							own[n.Name] = true
						}
					}
				}
			}
		}
	}
	delete(own, "Result")
	delete(own, "Verdict")
	// Every name the reference uses unqualified that it does not declare
	// itself must not be one of them.
	for _, id := range ref.Unresolved {
		if own[id.Name] {
			t.Errorf("reference_test.go uses the sink's %s at %v", id.Name, fset.Position(id.Pos()))
		}
	}
}

// TestRefSipVectors pins the reference's SipHash-2-4 to the published
// test vectors (the reference implementation's vectors.h) under the key
// 00 01 … 0f: the empty message and the 15-byte message 00 … 0e.
func TestRefSipVectors(t *testing.T) {
	var key [16]byte
	msg := make([]byte, 15)
	for i := range key {
		key[i] = byte(i)
	}
	for i := range msg {
		msg[i] = byte(i)
	}
	for _, c := range []struct {
		n    int
		want uint64
	}{{0, 0x726fdb47dd0e0e31}, {15, 0xa129ca6149be45e5}} {
		if got := refSip(key, msg[:c.n]); got != c.want {
			t.Errorf("SipHash-2-4 of %d bytes = %#016x, published vector %#016x", c.n, got, c.want)
		}
	}
}
