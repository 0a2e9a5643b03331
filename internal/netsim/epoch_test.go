package netsim

import (
	"math/rand"
	"testing"
	"time"

	"pnm/internal/fault"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/mole"
	"pnm/internal/obs"
	"pnm/internal/packet"
)

// TestTracebackSurvivesMidChainCrash is the end-to-end stale-resolver
// regression: crash a node in the middle of the mole's forwarding chain,
// so the survivors re-home and an honest marker's depth changes, then
// keep injecting. Every post-repair packet must still verify cleanly —
// the resolver walks the arrival epoch's tree — and the verdict must
// keep pinning the mole. Before the epoch threading, the sink's resolver
// stayed on the start-up tree and every post-repair chain was wrongly
// reported Stopped (sink.verify.stops > 0).
func TestTracebackSurvivesMidChainCrash(t *testing.T) {
	reg := obs.New()
	scheme := marking.PNM{P: 1}
	net, topo, keys := startGrid(t, Config{
		Scheme:           scheme,
		Seed:             61,
		Obs:              reg,
		TopologyResolver: true,
	})

	mole15 := packet.NodeID(15) // far corner: deepest chain in the grid
	victim := topo.Parent(topo.Parent(mole15))
	if victim == packet.SinkID || victim == topo.Parent(mole15) {
		t.Fatalf("fixture drift: victim %d is not a mid-chain hop", victim)
	}
	src := &mole.Source{ID: mole15, Base: packet.Report{Event: 0xE9}, Behavior: mole.MarkNever}
	env := &mole.Env{Scheme: scheme, StolenKeys: map[packet.NodeID]mac.Key{mole15: keys.Key(mole15)}}
	rng := rand.New(rand.NewSource(62))
	inject := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			if err := net.Inject(mole15, src.Next(env, rng)); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.WaitSettled(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	inject(40)
	// The network is settled, so no in-flight packet straddles the epoch
	// boundary: everything injected from here on is marked under — and
	// resolved against — the repaired tree.
	net.ApplyFault(fault.Event{Kind: fault.NodeCrash, Node: victim})
	inject(40)

	if stops := reg.Counter("sink.verify.stops").Value(); stops != 0 {
		t.Fatalf("honest chains reported stopped %d times across the reroute; want 0", stops)
	}
	v := net.Verdict()
	if !v.Identified || !v.SuspectsContain(mole15) {
		t.Fatalf("verdict after churn = %+v, want the mole at V%d identified", v, mole15)
	}
}
