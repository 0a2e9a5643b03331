// Large-network demo: a 1000-node random geometric field with the sink at
// a corner. A mole deep in the network floods bogus reports; the sink
// traces it live (goroutine-per-node simulation with lossy links), using
// the topology-restricted O(d) anonymous-ID resolution of the paper's §7.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	pnm "pnm"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== 1000-node live network ===")
	topo, err := pnm.NewRandomGeometric(pnm.GeometricConfig{
		Nodes:        1000,
		Side:         18,
		RadioRange:   1.1,
		Seed:         42,
		SinkAtCorner: true,
	})
	if err != nil {
		return err
	}
	keys := pnm.NewKeyStore([]byte("largenet-demo"))

	mole := topo.DeepestNode()
	hops := topo.Depth(mole)
	fmt.Printf("nodes: %d, avg degree %.1f, max depth %d\n", topo.NumNodes(), topo.AvgDegree(), topo.MaxDepth())
	fmt.Printf("mole at %v, %d hops from the sink\n", mole, hops)

	scheme := pnm.PNMScheme(pnm.MarkingProbability(hops-1, 3))
	sys, err := pnm.NewSystem(topo, keys, scheme)
	if err != nil {
		return err
	}

	env := &pnm.AdversaryEnv{Scheme: scheme, StolenKeys: map[pnm.NodeID]pnm.Key{mole: keys.Key(mole)}}
	live, err := sys.StartLiveSystem(nil, env, 1)
	if err != nil {
		return err
	}
	defer live.Close()

	src := &pnm.SourceMole{ID: mole, Base: pnm.Report{Event: 0xD00D}, Behavior: pnm.MarkNever}
	rng := rand.New(rand.NewSource(2))
	const packets = 400
	start := time.Now()
	for i := 0; i < packets; i++ {
		if err := live.Inject(mole, src.Next(env, rng)); err != nil {
			return err
		}
	}
	if err := live.WaitDelivered(packets, 30*time.Second); err != nil {
		return err
	}
	elapsed := time.Since(start)

	v := live.Verdict()
	fmt.Printf("\ninjected %d bogus reports; sink processed them in %v\n", packets, elapsed.Round(time.Millisecond))
	fmt.Printf("verdict: stop %v, suspects %v, identified=%v\n", v.Stop, v.Suspects, v.Identified)
	if v.SuspectsContain(mole) {
		fmt.Println("the mole is inside the suspected neighborhood — dispatch the task force.")
	} else {
		fmt.Println("the mole escaped?! (this should not happen)")
	}

	// What the paper's timing model says this would take on real Mica2
	// motes at 19.2 kbps.
	model := pnm.Mica2Energy()
	fmt.Printf("\non Mica2 hardware this traceback needs ~%v of attack traffic\n",
		model.TracebackLatency(packets, 36).Round(time.Millisecond))
	return nil
}
