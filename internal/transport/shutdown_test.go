package transport

import (
	"sync"
	"testing"
	"time"

	"pnm/internal/obs"
	"pnm/internal/queue"
	"pnm/internal/sink"
)

// TestAcceptLoopExitsOnClosedListener pins the accept-loop bugfix: a
// listener that dies under a live server (closed here; EMFILE or a
// revoked fd in production) must be counted once and end the loop — the
// old code hit `continue` with no backoff and spun hot on ErrClosed
// forever. One error then silence is the signature of a clean exit; a
// spin would push the counter into the thousands within the poll window.
func TestAcceptLoopExitsOnClosedListener(t *testing.T) {
	sc := testScenario(t)
	reg := obs.New()
	srv, err := Listen("127.0.0.1:0", "", Config{
		NewVerifier: sc.NewVerifier,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Kill the listener without touching s.stop: the server is still
	// "running" as far as the accept loop can tell.
	srv.ln.Close()

	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("transport.accept_errors").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("accept error on closed listener never counted")
		}
		time.Sleep(time.Millisecond)
	}
	// Give a spinning loop time to hang itself, then assert it did not:
	// exactly one error means the loop observed ErrClosed and returned.
	time.Sleep(50 * time.Millisecond)
	if got := reg.Counter("transport.accept_errors").Value(); got != 1 {
		t.Fatalf("accept_errors = %d after listener death, want exactly 1 (loop must exit, not spin)", got)
	}
}

// TestUDPLoopExitsOnClosedSocket is the same pin for the UDP reader.
func TestUDPLoopExitsOnClosedSocket(t *testing.T) {
	sc := testScenario(t)
	reg := obs.New()
	srv, err := Listen("127.0.0.1:0", "127.0.0.1:0", Config{
		NewVerifier: sc.NewVerifier,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	srv.udp.Close()

	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("transport.udp.read_errors").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("read error on closed UDP socket never counted")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got := reg.Counter("transport.udp.read_errors").Value(); got != 1 {
		t.Fatalf("udp.read_errors = %d after socket death, want exactly 1", got)
	}
}

// TestCloseIdleConnNotTruncated pins the read-loop shutdown fix: Close
// shuts an idle connection under its blocked read, and the resulting
// error is the server's own doing, not a truncated frame. The old loop
// counted it in transport.decode.truncated.
func TestCloseIdleConnNotTruncated(t *testing.T) {
	sc := testScenario(t)
	reg := obs.New()
	srv, err := Listen("127.0.0.1:0", "", Config{
		NewVerifier: sc.NewVerifier,
		Topo:        sc.Topo,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer cl.Close()

	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("transport.conns_accepted").Value() == 0 {
		if time.Now().After(deadline) {
			srv.Close()
			t.Fatal("connection never accepted")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()

	if got := reg.Counter("transport.decode.truncated").Value(); got != 0 {
		t.Fatalf("transport.decode.truncated = %d after closing an idle connection, want 0", got)
	}
	frames := reg.Counter("transport.frames").Value()
	delivered := reg.Counter("transport.delivered").Value()
	policy := reg.Counter("transport.ingest.queue_drop_newest").Value() +
		reg.Counter("transport.ingest.queue_drop_oldest").Value()
	down := reg.Counter("transport.chaos.dropped_while_down").Value()
	onClose := reg.Counter("transport.ingest.dropped_on_close").Value()
	if frames != delivered+policy+down+onClose {
		t.Fatalf("ledger invariant broken: %d != %d + %d + %d + %d",
			frames, delivered, policy, down, onClose)
	}
}

// TestDropOldestEnqueueReturnsAfterStop pins the DropOldest shutdown
// bugfix. Two racing readers drive enqueue against a full queue that no
// sink will ever drain — exactly the readLoop shape during Close. The
// old eviction loop had no stop case, so the readers evicted each
// other's frames forever and the `for s.enqueue(...)` loops below never
// exited; with the fix, closing stop makes every enqueue return false.
func TestDropOldestEnqueueReturnsAfterStop(t *testing.T) {
	// A bare Server: no goroutines, no sockets — enqueue only touches the
	// ingest queue, the stop channel, the policy and the counters.
	s := &Server{
		cfg:    Config{Policy: queue.DropOldest, QueueDepth: 1},
		ingest: make(chan item, 1),
		stop:   make(chan struct{}),
	}
	s.c.bind(nil)
	// Wedge the queue: one resident frame and nobody draining.
	s.ingest <- item{}

	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for s.enqueue(new(frame), nil) {
			}
		}()
	}
	// Let the readers race against the full queue, then shut down.
	time.Sleep(20 * time.Millisecond)
	close(s.stop)

	done := make(chan struct{})
	go func() {
		readers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DropOldest enqueue still spinning 5s after stop closed")
	}
}

// TestDroppedOnCloseBalancesLedger pins the silent-drop bugfix: frames
// accepted off the wire but still queued (or stuck in a blocked enqueue)
// when Close fires must surface in transport.ingest.dropped_on_close, so
// the ledger invariant holds exactly at rest:
//
//	frames = delivered + policy drops + dropped while down + dropped on close
//
// The sink goroutine is wedged by a verifier parked in its first Verify,
// which pins the interleaving: frame 1 is dequeued and folding, frame 2
// sits in the depth-1 queue, frame 3 is parked in a Block-policy enqueue.
// Close must deliver exactly 1 and account the other 2 as close drops.
func TestDroppedOnCloseBalancesLedger(t *testing.T) {
	sc := testScenario(t)
	reg := obs.New()
	// calls starts at 1, so the first Verify is the one that parks.
	bv := &blockingVerifier{calls: 1, entered: make(chan struct{}), released: make(chan struct{})}
	srv, err := Listen("127.0.0.1:0", "", Config{
		NewVerifier: func() sink.Verifier {
			bv.Verifier = sc.NewVerifier()
			return bv
		},
		Topo:       sc.Topo,
		QueueDepth: 1,
		Policy:     queue.Block,
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(bv.released) })
	defer srv.Close()
	defer release()

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range sc.Stream(3) {
		if err := cl.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()

	// frames counts before enqueue, and the read loop is sequential: once
	// frame 3 is counted, frame 2's enqueue has returned (so frame 1 was
	// dequeued and is folding against the parked verifier) and frame 3 is
	// blocked in enqueue against the full queue.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("transport.frames").Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 3 frames read", reg.Counter("transport.frames").Value())
		}
		time.Sleep(time.Millisecond)
	}

	// Close stop while the verifier is still parked, so the sink
	// goroutine's first act after the in-flight fold completes is the
	// shutdown check — it must leave frame 2 for the close-time drain,
	// not fold it.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	<-srv.stop
	release()
	<-closed

	frames := reg.Counter("transport.frames").Value()
	delivered := reg.Counter("transport.delivered").Value()
	onClose := reg.Counter("transport.ingest.dropped_on_close").Value()
	if frames != 3 || delivered != 1 || onClose != 2 {
		t.Fatalf("ledger off: frames=%d delivered=%d dropped_on_close=%d, want 3/1/2\nregistry:\n%s",
			frames, delivered, onClose, reg)
	}
	policy := reg.Counter("transport.ingest.queue_drop_newest").Value() +
		reg.Counter("transport.ingest.queue_drop_oldest").Value()
	down := reg.Counter("transport.chaos.dropped_while_down").Value()
	if frames != delivered+policy+down+onClose {
		t.Fatalf("ledger invariant broken: %d != %d + %d + %d + %d",
			frames, delivered, policy, down, onClose)
	}
}
