package sink

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// TestTrackerPerGoroutineOwnership documents the package's concurrency
// contract (see the package doc): Tracker, Verifier and the resolvers are
// single-goroutine objects. Correct concurrent use is one fully private
// tracker chain per goroutine — sharing only the KeyStore, which is
// synchronized — exactly how internal/parallel fans experiment runs out.
// Under -race this test proves that discipline is race-free; it is the
// misuse boundary's negative space (sharing one tracker or one
// ExhaustiveResolver, whose per-report table cache is unsynchronized,
// between the two goroutines here would trip the detector).
func TestTrackerPerGoroutineOwnership(t *testing.T) {
	scheme := marking.PNM{P: 0.3}
	const n = 11
	const goroutines = 2
	// A fresh KeyStore, so the goroutines derive keys and build schedule
	// cores in the shared store concurrently.
	ks := mac.NewKeyStore([]byte(t.Name()))

	run := func(seed int64) Verdict {
		topo, err := topology.NewChain(n)
		if err != nil {
			t.Error(err)
			return Verdict{}
		}
		// Private resolver + verifier + tracker; only ks is shared.
		resolver := NewExhaustiveResolver(ks, topo.Nodes())
		v, err := NewVerifier(scheme, ks, n, resolver)
		if err != nil {
			t.Error(err)
			return Verdict{}
		}
		tracker := NewTracker(v, topo)

		rng := rand.New(rand.NewSource(seed))
		src := &mole.Source{ID: n, Base: packet.Report{Event: 0xAA}, Behavior: mole.MarkNever}
		menv := &mole.Env{Scheme: scheme}
		for i := 0; i < 150; i++ {
			msg := src.Next(menv, rng)
			for _, id := range topo.Forwarders(packet.NodeID(n)) {
				msg = scheme.Mark(id, ks.Key(id), msg, rng)
			}
			tracker.Observe(msg, 0)
		}
		return tracker.Verdict()
	}

	verdicts := make([]Verdict, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			verdicts[g] = run(int64(g) + 1)
		}()
	}
	wg.Wait()

	for g, v := range verdicts {
		if !v.Identified {
			t.Errorf("goroutine %d: source not identified: %+v", g, v)
		}
		if v.Stop != n-1 {
			t.Errorf("goroutine %d: Stop = %v, want V%d", g, v.Stop, n-1)
		}
	}
}

// TestSingleGoroutineAnnotations asserts the ownership contract above is
// machine-readable: Tracker and both resolvers must carry the
// `// pnmlint:single-goroutine` marker in their declaration docs, which
// is what lets cmd/pnmlint's ownership analyzer enforce the contract
// instead of this comment merely describing it.
func TestSingleGoroutineAnnotations(t *testing.T) {
	want := map[string]string{
		"Tracker":            "tracker.go",
		"ExhaustiveResolver": "resolve.go",
		"TopologyResolver":   "resolve.go",
		"NestedVerifier":     "verify.go",
		"AMSVerifier":        "verify.go",
	}
	fset := token.NewFileSet()
	for typeName, file := range want {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		annotated := false
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typeName {
					continue
				}
				for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc} {
					if doc == nil {
						continue
					}
					for _, c := range doc.List {
						if strings.Contains(c.Text, "pnmlint:single-goroutine") {
							annotated = true
						}
					}
				}
			}
		}
		if !annotated {
			t.Errorf("%s: type %s lacks the // pnmlint:single-goroutine annotation", file, typeName)
		}
	}
}

// TestNoallocAnnotations asserts the zero-alloc side of the contract is
// machine-readable too: the per-mark verify kernels carry the
// `// pnmlint:noalloc` marker, which is what lets cmd/pnmlint check them
// against the compiler's escape analysis instead of relying solely on the
// AllocsPerRun test above surviving refactors.
func TestNoallocAnnotations(t *testing.T) {
	want := map[string]string{
		"verifyMark":   "verify.go",
		"resolveProbe": "verify.go",
	}
	fset := token.NewFileSet()
	for funcName, file := range want {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		annotated := false
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != funcName || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.Contains(c.Text, "pnmlint:noalloc") {
					annotated = true
				}
			}
		}
		if !annotated {
			t.Errorf("%s: func %s lacks the // pnmlint:noalloc annotation", file, funcName)
		}
	}
}
