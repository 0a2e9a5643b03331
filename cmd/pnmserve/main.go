// Command pnmserve is the networked sink: it listens for framed marked
// reports on real TCP (and optionally UDP) sockets, verifies them
// on the sink goroutine, and prints the traceback verdict — the
// in-process simulator's sink turned into a service.
//
// Usage:
//
//	pnmserve -listen 127.0.0.1:7101 -nodes 300 -side 10 -range 1.3 -packets 400
//
// The scenario flags (-nodes/-side/-range/-seed) regenerate the exact
// deployment and key material a pnmload with the same flags generates
// traffic for; the final verdict line is byte-identical to the one the
// same scenario produces in-process (pnmload -expect prints it).
//
// -chaos generates a seeded fault plan of one sink crash and its restore
// and fires it against the live server: the tracker checkpoints (PNM2),
// goes down — arrivals are dropped and counted — and restores mid-stream.
// -packets counts processed reports, delivered or dropped by the outage,
// so a run fed exactly -packets reports ends with a verdict.
// -queue selects the ingest overflow policy (block, drop-newest,
// drop-oldest). -packets 0 serves until SIGINT or SIGTERM, then prints
// the verdict. -stats dumps the obs registry (transport.*, sink.*) to
// stderr at exit; -debug ADDR additionally serves pprof and expvar.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pnm/internal/debugserver"
	"pnm/internal/fault"
	"pnm/internal/loadgen"
	"pnm/internal/obs"
	"pnm/internal/queue"
	"pnm/internal/transport"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnmserve:", err)
		os.Exit(1)
	}
}

// wait blocks until srv has processed packets reports — delivered, or
// dropped while a -chaos outage had the sink down — or, when packets is
// 0, until ctx is cancelled. A cancellation or the timeout cuts a
// positive wait short with an error.
func wait(ctx context.Context, srv *transport.Server, packets int, timeout time.Duration) error {
	if packets <= 0 {
		<-ctx.Done()
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- srv.WaitProcessed(packets, timeout) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("interrupted after %d of %d processed reports", srv.Processed(), packets)
	}
}

// run executes the server until it has processed -packets reports or,
// with -packets 0, until ctx is cancelled.
func run(ctx context.Context, args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("pnmserve", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:7101", "TCP listen address (:0 picks a port)")
		udpAddr    = fs.String("udp", "", "optional UDP listen address")
		nodes      = fs.Int("nodes", 300, "scenario: sensor node count")
		side       = fs.Float64("side", 10, "scenario: deployment square side")
		radioRange = fs.Float64("range", 1.3, "scenario: radio range")
		seed       = fs.Int64("seed", 1, "scenario: RNG seed")
		packets    = fs.Int("packets", 400, "exit after this many reports are processed, delivered or dropped by a -chaos outage (0 = until killed)")
		queueFlag  = fs.String("queue", "block", "ingest overflow policy: block, drop-newest, drop-oldest")
		depth      = fs.Int("queue-depth", 256, "ingest queue depth")
		maxFrame   = fs.Int("max-frame", transport.DefaultMaxFrameBytes, "max frame payload bytes accepted from a peer")
		maxMarks   = fs.Int("max-marks", transport.DefaultMaxMarks, "max marks accepted per report")
		chaos      = fs.Bool("chaos", false, "fire a seeded fault plan's sink crash/restore events against the live server")
		stats      = fs.Bool("stats", false, "dump obs counters to stderr at exit")
		debugAddr  = fs.String("debug", "", "serve pprof and expvar obs counters on this address")
		timeout    = fs.Duration("timeout", 5*time.Minute, "give up waiting for -packets after this long")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := queue.Parse(*queueFlag)
	if err != nil {
		return err
	}
	sc, err := loadgen.New(loadgen.Config{
		Nodes: *nodes, Side: *side, RadioRange: *radioRange, Seed: *seed,
	})
	if err != nil {
		return err
	}

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
	}

	var plan *fault.Plan
	if *chaos {
		if *packets <= 0 {
			return fmt.Errorf("-chaos needs -packets to place its milestones")
		}
		plan = fault.Generate(*seed, sc.Topo, fault.PlanConfig{
			Start: *packets / 8, Step: *packets / 8, SinkCrashes: 1,
		})
		fmt.Fprintf(os.Stderr, "chaos plan: %v\n", plan.Events)
	}

	srv, err := transport.Listen(*listen, *udpAddr, transport.Config{
		NewVerifier: sc.NewVerifier,
		Topo:        sc.Topo,
		QueueDepth:  *depth,
		Policy:      policy,
		Limits:      transport.Limits{MaxFrameBytes: *maxFrame, MaxMarks: *maxMarks},
		Obs:         reg,
		Faults:      plan,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	fmt.Fprintf(w, "listening on %s", srv.Addr())
	if u := srv.UDPAddr(); u != nil {
		fmt.Fprintf(w, " (udp %s)", u)
	}
	fmt.Fprintf(w, "\nscenario: %d nodes, mole %v at %d hops, policy %s\n",
		sc.Topo.NumNodes(), sc.Mole, sc.Hops, policy)

	if err := wait(ctx, srv, *packets, *timeout); err != nil {
		return err
	}
	fmt.Fprintf(w, "delivered %d\n", srv.Delivered())
	fmt.Fprintln(w, loadgen.FormatVerdict(srv.Verdict()))
	if *stats {
		fmt.Fprintln(os.Stderr, "\nobs counters:")
		reg.Fprint(os.Stderr)
	}
	return nil
}
