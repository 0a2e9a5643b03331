package lint

import (
	"strings"
	"testing"
)

// TestRepoLintsClean runs the full default analyzer suite over the whole
// repository — exactly what `make lint` does, compiler escape data
// included — and requires zero diagnostics. This is the invariant the
// suite exists for: the repo's own deterministic packages stay free of
// wall-clock reads, global rand, order-leaking map iteration,
// goroutine-crossing tracker use, unlocked guarded-field access, naked
// goroutines and hot-path heap allocation, with every intentional
// exception carrying an allow annotation.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	if prog.ModulePath != "pnm" {
		t.Fatalf("module path = %q, want pnm", prog.ModulePath)
	}
	if len(prog.Pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the ./... walk is dropping packages", len(prog.Pkgs))
	}
	escapes, err := LoadEscapes("../..", "./...")
	if err != nil {
		t.Fatalf("LoadEscapes: %v", err)
	}
	if len(escapes) == 0 {
		t.Fatal("LoadEscapes found no escapes module-wide; the -gcflags=-m parse is broken")
	}
	analyzers := DefaultAnalyzers(prog.ModulePath)
	AttachEscapes(analyzers, escapes)
	for _, d := range Run(prog, analyzers...) {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestDeterministicPackagesExist pins the wallclock analyzer's coverage
// to real packages, so a rename cannot silently drop one from the rule.
func TestDeterministicPackagesExist(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	have := make(map[string]bool, len(prog.Pkgs))
	for _, p := range prog.Pkgs {
		have[p.Path] = true
	}
	for _, rel := range DeterministicPackages {
		if path := prog.ModulePath + "/" + rel; !have[path] {
			t.Errorf("deterministic package %s not found in the module", path)
		}
	}
}

// TestSingleGoroutineMarkersPresent asserts the sink package's ownership
// contract is machine-readable: Tracker and both resolvers carry the
// // pnmlint:single-goroutine marker the ownership analyzer enforces.
func TestSingleGoroutineMarkersPresent(t *testing.T) {
	prog, err := Load("../..", "./internal/sink")
	if err != nil {
		t.Fatalf("load sink: %v", err)
	}
	marked := markedTypes(prog)
	names := make(map[string]bool, len(marked))
	for tn := range marked {
		names[tn.Pkg().Path()+"."+tn.Name()] = true
	}
	for _, want := range []string{
		"pnm/internal/sink.Tracker",
		"pnm/internal/sink.ExhaustiveResolver",
		"pnm/internal/sink.TopologyResolver",
		"pnm/internal/sink.PathProber",
	} {
		if !names[want] {
			var have []string
			for n := range names {
				have = append(have, n)
			}
			t.Errorf("%s lacks the // pnmlint:single-goroutine marker (marked: %s)",
				want, strings.Join(have, ", "))
		}
	}
}

// TestServerGuardedFieldsPresent pins transport.Server's lock discipline
// as machine-readable annotations: the sink state under sink.Host's mu,
// the connection set under connMu. Removing an annotation (or renaming a
// field out from under it) fails here before a race can regress quietly.
func TestServerGuardedFieldsPresent(t *testing.T) {
	checkGuarded(t, []string{"./internal/transport", "./internal/sink"}, map[string]string{
		"Server.conns": "connMu",
	})
}

// TestNetworkGuardedFieldsPresent pins the live simulator's lock
// discipline: the sink state under sink.Host's mu, the settledness
// ledger beside it under Network.mu.
func TestNetworkGuardedFieldsPresent(t *testing.T) {
	checkGuarded(t, []string{"./internal/netsim", "./internal/sink"}, map[string]string{
		"Network.injected": "mu",
		"Network.dropped":  "mu",
	})
}

// checkGuarded loads pkgs and requires every field in want, and every
// field of the sink host both live hosts fold through, to carry its
// guarded-by annotation.
func checkGuarded(t *testing.T, pkgs []string, want map[string]string) {
	t.Helper()
	prog, err := Load("../..", pkgs...)
	if err != nil {
		t.Fatalf("load %v: %v", pkgs, err)
	}
	guarded, diags := guardedFields(prog)
	for _, d := range diags {
		t.Errorf("bad guarded-by annotation: %s", d)
	}
	byName := make(map[string]string, len(guarded))
	for v, g := range guarded {
		byName[g.owner+"."+v.Name()] = g.mutex
	}
	for _, field := range []string{"tracker", "ckpt", "delivered", "progress"} {
		want["Host."+field] = "mu"
	}
	for field, mutex := range want {
		if got := byName[field]; got != mutex {
			t.Errorf("%s: guarded-by %q, want %q (annotation missing or moved)", field, got, mutex)
		}
	}
}

// TestNoallocHotPathsAnnotated pins the zero-alloc kernel set: the MAC
// schedule, the node-side AnonID, the marking encode paths, the sink
// verify kernels, the wire decode path and the epoch pins all carry
// // pnmlint:noalloc, so the escape-analysis gate actually covers the
// functions the AllocsPerRun benchmarks measure.
func TestNoallocHotPathsAnnotated(t *testing.T) {
	prog, err := Load("../..", "./internal/mac", "./internal/marking", "./internal/sink",
		"./internal/packet", "./internal/transport", "./internal/topology")
	if err != nil {
		t.Fatalf("load packages: %v", err)
	}
	funcs := noallocFuncs(prog)
	for _, want := range []string{
		"pnm/internal/mac.Sum",
		"pnm/internal/mac.AnonID",
		"pnm/internal/mac.subkey",
		"pnm/internal/mac.macTag",
		"pnm/internal/mac.sipSum",
		"pnm/internal/mac.sipWords",
		"pnm/internal/mac.loadLE",
		"pnm/internal/mac.anonWords",
		"pnm/internal/mac.anonHash",
		"pnm/internal/mac.Schedule.Sum",
		"pnm/internal/mac.Schedule.AnonID",
		"pnm/internal/mac.Hasher.Schedule",
		"pnm/internal/mac.Hasher.Sum",
		"pnm/internal/mac.Hasher.AnonID",
		"pnm/internal/mac.Hasher.Publish",
		"pnm/internal/mac.KeyStore.derive",
		"pnm/internal/marking.NestedMACAnonSched",
		"pnm/internal/marking.AMSMACSched",
		"pnm/internal/sink.NestedVerifier.verifyMark",
		"pnm/internal/sink.NestedVerifier.resolveProbe",
		"pnm/internal/sink.NestedVerifier.Verify",
		"pnm/internal/sink.NestedVerifier.publish",
		"pnm/internal/sink.NestedVerifier.verify",
		"pnm/internal/sink.NestedVerifier.acceptMatch",
		"pnm/internal/sink.strictlyBelow",
		"pnm/internal/sink.PathProber.Probe",
		"pnm/internal/sink.PathProber.pathOf",
		"pnm/internal/sink.seedTip",
		"pnm/internal/sink.rootPath",
		"pnm/internal/sink.TopologyResolver.Resolve",
		"pnm/internal/sink.TopologyResolver.search",
		"pnm/internal/sink.TopologyResolver.publish",
		"pnm/internal/sink.ExhaustiveResolver.publish",
		"pnm/internal/sink.TopologyResolver.anonOf",
		"pnm/internal/sink.TopologyResolver.hintPath",
		"pnm/internal/sink.TopologyResolver.hint",
		"pnm/internal/sink.routeTree.build",
		"pnm/internal/sink.Order.AddChain",
		"pnm/internal/sink.Order.index",
		"pnm/internal/sink.Order.addEdge",
		"pnm/internal/sink.AMSVerifier.Verify",
		"pnm/internal/sink.PPMVerifier.Verify",
		"pnm/internal/packet.DecodeLimit.DecodeInto",
		"pnm/internal/transport.FrameReader.Next",
		"pnm/internal/transport.FrameReader.decodeAfterHeader",
		"pnm/internal/transport.DecodeDatagramInto",
		"pnm/internal/topology.EpochSet.Stamp",
		"pnm/internal/topology.EpochSet.Done",
	} {
		if _, ok := funcs[want]; !ok {
			t.Errorf("%s lacks the // pnmlint:noalloc annotation", want)
		}
	}
}
