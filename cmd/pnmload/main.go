// Command pnmload is the standalone load generator: it regenerates the
// seeded scenario traffic a pnmserve with the same scenario flags expects
// — the mole's bogus reports, marked en route by every forwarder on its
// path — and replays it over TCP or UDP at a target rate.
//
// Usage:
//
//	pnmload -addr 127.0.0.1:7101 -nodes 300 -side 10 -range 1.3 -packets 400 -rate 2000
//
// -expect prints the canonical verdict line the receiving sink must end
// on (computed by folding the same stream in-process), so a loopback run
// is checkable with a string compare:
//
//	pnmload -addr ... -packets 400 -expect
//	pnmserve -listen ... -packets 400   # last line must match
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pnm/internal/loadgen"
	"pnm/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnmload:", err)
		os.Exit(1)
	}
}

// run executes the load generator.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pnmload", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7101", "ingest server address")
		udp        = fs.Bool("udp", false, "send UDP datagrams instead of a TCP stream")
		nodes      = fs.Int("nodes", 300, "scenario: sensor node count")
		side       = fs.Float64("side", 10, "scenario: deployment square side")
		radioRange = fs.Float64("range", 1.3, "scenario: radio range")
		seed       = fs.Int64("seed", 1, "scenario: RNG seed")
		packets    = fs.Int("packets", 400, "reports to replay")
		rate       = fs.Int("rate", 0, "target send rate in packets/s (0 = as fast as possible)")
		burst      = fs.Int("burst", 25, "packets per paced burst")
		expect     = fs.Bool("expect", false, "print the expected verdict and exit without sending")
		retries    = fs.Int("retries", 10, "connection attempts before giving up")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := loadgen.New(loadgen.Config{
		Nodes: *nodes, Side: *side, RadioRange: *radioRange, Seed: *seed,
	})
	if err != nil {
		return err
	}
	if *expect {
		fmt.Fprintln(w, loadgen.FormatVerdict(sc.Verdict(*packets)))
		return nil
	}

	dial := func() (*transport.Client, error) {
		if *udp {
			return transport.DialUDP(*addr)
		}
		return transport.Dial(*addr)
	}
	var cl *transport.Client
	for attempt := 0; ; attempt++ {
		cl, err = dial()
		if err == nil {
			break
		}
		if attempt+1 >= *retries {
			return fmt.Errorf("connecting to %s: %w", *addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	stream := sc.Stream(*packets)
	start := time.Now()
	bytes := 0
	for sent := 0; sent < len(stream); {
		n := *burst
		if sent+n > len(stream) {
			n = len(stream) - sent
		}
		for i := 0; i < n; i++ {
			msg := stream[sent+i]
			if err := cl.Send(msg); err != nil {
				return fmt.Errorf("after %d packets: %w", sent+i, err)
			}
			bytes += transport.FrameHeaderLen + msg.WireSize()
		}
		sent += n
		if err := cl.Flush(); err != nil {
			return fmt.Errorf("after %d packets: %w", sent, err)
		}
		if *rate > 0 {
			// Sleep until the paced schedule catches up with what was sent.
			ahead := time.Duration(sent)*time.Second/time.Duration(*rate) - time.Since(start)
			if ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}
	if err := cl.Close(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	pps := float64(len(stream)) / elapsed.Seconds()
	fmt.Fprintf(w, "sent %d frames, %d bytes in %v (%.0f pps) to %s\n",
		len(stream), bytes, elapsed.Round(time.Millisecond), pps, *addr)
	return nil
}
