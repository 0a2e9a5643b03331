package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"pnm/internal/loadgen"
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
		"-packets", "150", "-workers", "2", "-timeout", "20s",
	}
	sc, err := loadgen.New(loadgen.Config{Nodes: 80, Side: 5, RadioRange: 1.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := loadgen.FormatVerdict(sc.Verdict(packets))

	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(args, out) }()

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

// TestServeBadFlags covers flag validation paths.
func TestServeBadFlags(t *testing.T) {
	if err := run([]string{"-queue", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad -queue accepted")
	}
	if err := run([]string{"-chaos", "-packets", "0"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-chaos without -packets accepted")
	}
	if err := run([]string{"-nodes", "0"}, &bytes.Buffer{}); err == nil {
		t.Fatal("empty scenario accepted")
	}
}
