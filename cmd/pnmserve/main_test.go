package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pnm/internal/fault"
	"pnm/internal/loadgen"
	"pnm/internal/sink"
	"pnm/internal/transport"
)

// syncBuffer lets the test read run's output while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// listenAddr polls the buffer until the "listening on" banner appears and
// returns the bound address.
func listenAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := out.String()
		if i := strings.Index(s, "listening on "); i >= 0 {
			rest := s[i+len("listening on "):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				return rest[:j]
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never printed its listen address; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeLoopback boots the full command on an ephemeral port, replays
// the matching scenario stream at it over TCP, and checks the verdict
// line against the in-process ground truth.
func TestServeLoopback(t *testing.T) {
	const packets = 150
	args := []string{
		"-listen", "127.0.0.1:0",
		"-nodes", "80", "-side", "5", "-range", "1.4", "-seed", "3",
		"-packets", "150", "-timeout", "20s",
	}
	sc, err := loadgen.New(loadgen.Config{Nodes: 80, Side: 5, RadioRange: 1.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := loadgen.FormatVerdict(sc.Verdict(packets))

	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(context.Background(), args, out) }()

	cl, err := transport.Dial(listenAddr(t, out))
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range sc.Stream(packets) {
		if err := cl.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run never exited; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), want) {
		t.Fatalf("verdict line missing\nwant: %s\noutput:\n%s", want, out.String())
	}
	if !strings.Contains(out.String(), "delivered 150") {
		t.Fatalf("delivered count missing; output:\n%s", out.String())
	}
}

// TestServeChaosExactPackets feeds -chaos exactly -packets reports. The
// plan's outage drops the reports between its crash and restore
// milestones, so the server delivers fewer than -packets; it must still
// finish once every report is processed and print the verdict of the
// reports outside the outage.
func TestServeChaosExactPackets(t *testing.T) {
	const packets = 400
	args := []string{
		"-listen", "127.0.0.1:0",
		"-nodes", "80", "-side", "5", "-range", "1.4", "-seed", "3",
		"-packets", "400", "-chaos", "-timeout", "20s",
	}
	sc, err := loadgen.New(loadgen.Config{Nodes: 80, Side: 5, RadioRange: 1.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The same plan run generates: one crash and its restore.
	plan := fault.Generate(3, sc.Topo, fault.PlanConfig{Start: packets / 8, Step: packets / 8, SinkCrashes: 1})
	var crash, restore int
	for _, ev := range plan.Events {
		switch ev.Kind {
		case fault.SinkCrash:
			crash = ev.At
		case fault.SinkRestore:
			restore = ev.At
		}
	}
	if crash <= 0 || restore <= crash || restore >= packets {
		t.Fatalf("plan %v has no outage inside the stream", plan.Events)
	}
	stream := sc.Stream(packets)
	ref := sc.NewTracker()
	for i, msg := range stream {
		if i < crash || i >= restore {
			ref.Observe(msg, 0)
		}
	}
	want := loadgen.FormatVerdict(ref.Verdict())

	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(context.Background(), args, out) }()
	cl, err := transport.Dial(listenAddr(t, out))
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range stream {
		if err := cl.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run never exited; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), want) {
		t.Fatalf("verdict line missing\nwant: %s\noutput:\n%s", want, out.String())
	}
	if d := fmt.Sprintf("delivered %d\n", packets-(restore-crash)); !strings.Contains(out.String(), d) {
		t.Fatalf("output lacks %q:\n%s", d, out.String())
	}
}

// TestServeUntilCancelled checks that -packets 0 serves past -timeout
// and, once its context is cancelled, prints the delivered count and the
// verdict and exits cleanly.
func TestServeUntilCancelled(t *testing.T) {
	args := []string{
		"-listen", "127.0.0.1:0",
		"-nodes", "80", "-side", "5", "-range", "1.4", "-seed", "3",
		"-packets", "0", "-timeout", "100ms",
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, out) }()
	listenAddr(t, out)

	select {
	case err := <-done:
		t.Fatalf("run returned before cancellation: %v\noutput:\n%s", err, out.String())
	case <-time.After(time.Second):
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run ignored cancellation; output:\n%s", out.String())
	}
	for _, want := range []string{"delivered 0\n", loadgen.FormatVerdict(sink.Verdict{})} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestServeBadFlags covers flag validation paths.
func TestServeBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-queue", "bogus"},
		{"-chaos", "-packets", "0"}, // chaos milestones need a packet count
		{"-nodes", "0"},             // empty scenario
		{"-workers", "2"},           // no such flag
		{"-debug", "127.0.0.1:-1"},  // unbindable debug address
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Fatalf("run(%q) accepted", args)
		}
	}
}
