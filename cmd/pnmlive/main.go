// Command pnmlive runs the concurrent network simulator end to end: a
// mole deep in a random geometric field floods bogus reports, the sink's
// verdict evolves as packets arrive, and (with -quarantine) the suspected
// neighborhood is isolated the moment identification becomes unequivocal.
//
// Usage:
//
//	pnmlive -nodes 300 -side 10 -range 1.3 -packets 400 -quarantine
//
// The scenario is loadgen's: the same flags give pnmserve and pnmload the
// same field, keys and attack stream. Every burst settles before the
// verdict is read, so a run prints the same bytes every time.
//
// -chaos applies a seeded fault plan at burst boundaries — node
// crash/restart, link churn, and a sink crash restored from a PNM2
// tracker checkpoint — and prints each event as it fires. The mole and
// its first hop are protected, so the traceback still converges, just
// later. -queue selects the inbox overflow policy (block, drop-newest,
// drop-oldest).
//
// -debug ADDR serves net/http/pprof plus the simulator's obs counters
// (expvar, under the "pnm" key) on ADDR for the lifetime of the run, and
// dumps the counters to stderr at the end.
//
// To serve the same scenario over real sockets instead, run pnmserve with
// the same -nodes/-side/-range/-seed flags and replay traffic with
// pnmload.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"pnm/internal/debugserver"
	"pnm/internal/fault"
	"pnm/internal/loadgen"
	"pnm/internal/netsim"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/queue"
	"pnm/internal/sink"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnmlive:", err)
		os.Exit(1)
	}
}

// printFinalVerdict writes the end-of-run summary. The stop and suspect
// fields only mean something once a mark has been accepted, so the print
// is gated on HasStop the same way the per-burst progress line is.
func printFinalVerdict(w io.Writer, v sink.Verdict, moleID packet.NodeID) {
	if !v.HasStop {
		fmt.Fprintln(w, "\nfinal verdict: no marks accepted — no stop node")
		return
	}
	fmt.Fprintf(w, "\nfinal verdict: stop %v, suspects %v, identified=%v\n", v.Stop, v.Suspects, v.Identified)
	if v.SuspectsContain(moleID) {
		fmt.Fprintln(w, "the mole is inside the suspected neighborhood")
	}
}

// run executes the live scenario.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("pnmlive", flag.ContinueOnError)
	var (
		nodes      = fs.Int("nodes", 300, "sensor node count")
		side       = fs.Float64("side", 10, "deployment square side")
		radioRange = fs.Float64("range", 1.3, "radio range")
		packets    = fs.Int("packets", 400, "bogus reports to inject")
		seed       = fs.Int64("seed", 1, "RNG seed")
		loss       = fs.Float64("loss", 0, "per-link loss probability")
		quarantine = fs.Bool("quarantine", false, "isolate the suspected neighborhood once identified")
		debugAddr  = fs.String("debug", "", "serve pprof and expvar obs counters on this address (e.g. localhost:6060)")
		chaos      = fs.Bool("chaos", false, "run a seeded fault plan: node crash/restart, link churn, a sink crash+restore — the mole and its first hop are protected so the traceback still converges")
		queueFlag  = fs.String("queue", "block", "inbox overflow policy: block, drop-newest, drop-oldest")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := queue.Parse(*queueFlag)
	if err != nil {
		return err
	}

	// The obs registry is always live; -debug additionally publishes it.
	reg := obs.New()
	if *debugAddr != "" {
		dbg, derr := debugserver.Start(*debugAddr, reg)
		if derr != nil {
			return derr
		}
		defer func() {
			if derr := dbg.Shutdown(); derr != nil && err == nil {
				err = derr
			}
		}()
		defer func() {
			fmt.Fprintln(os.Stderr, "\nobs counters:")
			reg.Fprint(os.Stderr)
		}()
	}

	sc, err := loadgen.New(loadgen.Config{
		Nodes: *nodes, Side: *side, RadioRange: *radioRange, Seed: *seed,
	})
	if err != nil {
		return err
	}

	plan := &fault.Plan{}
	if *chaos {
		// Five event pairs spaced packets/11 apart: the last milestone
		// lands at or below -packets, so every event fires.
		plan = fault.Generate(*seed, sc.Topo, fault.PlanConfig{
			Start: *packets / 11, Step: *packets / 11,
			NodeChurn: 2, LinkChurn: 2, SinkCrashes: 1,
			Protect: []packet.NodeID{sc.Mole, sc.Topo.Parent(sc.Mole)},
		})
	}

	var mu sync.Mutex
	blacklist := map[packet.NodeID]bool{}
	src, env := sc.Source()
	net, err := netsim.Start(netsim.Config{
		Topo: sc.Topo, Keys: sc.Keys, Scheme: sc.Scheme, Seed: *seed, Env: env,
		LossProb:         *loss,
		TopologyResolver: true,
		QueuePolicy:      policy,
		Obs:              reg,
		Blacklisted: func(id packet.NodeID) bool {
			mu.Lock()
			defer mu.Unlock()
			return blacklist[id]
		},
	})
	if err != nil {
		return err
	}
	defer net.Close()

	fmt.Fprintf(w, "network: %d nodes, avg degree %.1f, mole %v at %d hops\n",
		sc.Topo.NumNodes(), sc.Topo.AvgDegree(), sc.Mole, sc.Hops)

	rng := rand.New(rand.NewSource(*seed))
	quarantined := false
	next := 0
	for sent := 0; sent < *packets; {
		burst := 25
		if sent+burst > *packets {
			burst = *packets - sent
		}
		for i := 0; i < burst; i++ {
			if err := net.Inject(sc.Mole, src.Next(env, rng)); err != nil {
				return err
			}
		}
		sent += burst
		if err := net.WaitSettled(30 * time.Second); err != nil {
			return err
		}
		v := net.Verdict()
		fmt.Fprintf(w, "after %3d injected: delivered %3d, seen %v, identified=%v",
			sent, net.Delivered(), v.HasStop, v.Identified)
		if v.HasStop {
			fmt.Fprintf(w, ", stop %v", v.Stop)
		}
		fmt.Fprintln(w)
		if *quarantine && !quarantined && v.Identified && v.HasStop {
			mu.Lock()
			for _, s := range v.Suspects {
				if s != packet.SinkID {
					blacklist[s] = true
				}
			}
			mu.Unlock()
			quarantined = true
			fmt.Fprintf(w, ">>> quarantined %v — the attack is cut off\n", v.Suspects)
		}
		due := net.ApplyDue(plan, next)
		for _, ev := range plan.Events[next:due] {
			fmt.Fprintf(w, ">>> fault %v\n", ev)
		}
		next = due
	}

	printFinalVerdict(w, net.Verdict(), sc.Mole)
	return nil
}
