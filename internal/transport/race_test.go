package transport

import (
	"sync"
	"testing"
	"time"

	"pnm/internal/fault"
	"pnm/internal/loadgen"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// TestPooledMessageReuseRaceFree hammers the Server's message pool from
// several concurrent ingest connections at once. Pooled messages follow a
// single-owner hand-off — reader goroutine → ingest queue → sink
// goroutine → back to the pool after the fold — and this test makes many
// readers cycle the same pool entries through that hand-off while the
// sink goroutine folds. Under -race, a
// message released while a reader still writes into it (or a fold still
// reads from it) trips the detector; without -race the delivered ledger
// and the verdict still pin that no packet was lost or corrupted. Each
// reader probes its frames on its own resolver while it owns them: on
// this honest stream the readers must match every mark the sink folds,
// so the sink's own resolver never hashes an anonymous ID.
func TestPooledMessageReuseRaceFree(t *testing.T) {
	const clients, packets = 6, 150
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
	defer srv.Close()

	stream := sc.Stream(packets)
	var senders sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			cl, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			for _, msg := range stream {
				if err := cl.Send(msg); err != nil {
					errs <- err
					cl.Close()
					return
				}
			}
			errs <- cl.Close()
		}()
	}
	senders.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every packet from every client must fold: the pool hand-off may
	// never lose or double-deliver a message.
	if err := srv.WaitDelivered(clients*packets, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The order matrix is a pure function of the set of verified chains,
	// so duplicate streams change nothing: the verdict must match a
	// single in-process fold of one stream. A pooled buffer recycled
	// under a still-reading fold would corrupt marks and break this.
	want := loadgen.FormatVerdict(sc.Verdict(packets))
	if got := loadgen.FormatVerdict(srv.Verdict()); got != want {
		t.Fatalf("verdict after pooled-ingest hammer differs\n got: %s\nwant: %s", got, want)
	}
	verified := reg.Counter("sink.verify.marks_verified").Value()
	matched := reg.Counter("transport.prober.marks_matched").Value()
	if verified == 0 || matched != verified {
		t.Errorf("readers matched %d marks, the sink verified %d: want every folded mark matched", matched, verified)
	}
	if n := reg.Counter("transport.prober.marks_unmatched").Value(); n != 0 {
		t.Errorf("readers left %d honest marks unmatched", n)
	}
	if n := reg.Counter("transport.prober.probes").Value(); n < matched {
		t.Errorf("readers hashed %d anonymous IDs for %d matches", n, matched)
	}
	if n := reg.Counter("sink.resolver.probes").Value(); n != 0 {
		t.Errorf("the sink's resolver hashed %d anonymous IDs on an honest, fully matched stream", n)
	}
}

// TestConcurrentVerdictReadsRaceFree pins the Server's mu discipline —
// the `// pnmlint:guarded-by mu` contract on tracker/delivered and
// Listen building the sink chain before the &Server{} literal publishes
// it — by hammering every reader from several goroutines while a live
// client streams and a fault plan swaps the tracker out underneath
// them. Under -race, any unlocked access to the guarded
// fields trips the detector; without -race it still exercises the
// crash/restore path concurrently with verdict reads.
func TestConcurrentVerdictReadsRaceFree(t *testing.T) {
	const packets = 400
	sc := testScenario(t)
	srv, err := Listen("127.0.0.1:0", "", Config{
		NewVerifier: sc.NewVerifier,
		Topo:        sc.Topo,
		Faults: &fault.Plan{Events: []fault.Event{
			{At: 100, Kind: fault.SinkCrash},
			{At: 150, Kind: fault.SinkRestore},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = srv.Verdict()
					_ = srv.Delivered()
				}
			}
		}()
	}

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		close(stop)
		readers.Wait()
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

	// The sink is down for processed frames 100..149, so those are
	// dropped; everything outside the outage must still fold.
	if err := srv.WaitDelivered(packets-100, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()
	v := srv.Verdict()
	if !v.HasStop {
		t.Error("no stop node after concurrent reads")
	}
	if !v.SuspectsContain(sc.Mole) {
		t.Errorf("mole %v not in suspects %v after concurrent reads", sc.Mole, v.Suspects)
	}
}

// blockingVerifier wraps a verifier chain and parks its second Verify
// until release closes, announcing on entered that it has parked.
type blockingVerifier struct {
	sink.Verifier
	calls    int
	entered  chan struct{}
	released chan struct{}
}

func (b *blockingVerifier) Verify(msg packet.Message, epoch topology.EpochVersion) sink.Result {
	if b.calls++; b.calls == 2 {
		close(b.entered)
		<-b.released
	}
	return b.Verifier.Verify(msg, epoch)
}

// TestVerdictReadDuringVerify pins that a verdict read never waits behind
// verification: while the sink goroutine is parked inside Verify, both
// Verdict and Delivered return. Once Verify resumes, every frame folds.
func TestVerdictReadDuringVerify(t *testing.T) {
	sc := testScenario(t)
	bv := &blockingVerifier{entered: make(chan struct{}), released: make(chan struct{})}
	srv, err := Listen("127.0.0.1:0", "", Config{
		NewVerifier: func() sink.Verifier {
			bv.Verifier = sc.NewVerifier()
			return bv
		},
		Topo: sc.Topo,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	release := sync.OnceFunc(func() { close(bv.released) })
	defer release()

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	stream := sc.Stream(3)
	for _, msg := range stream {
		if err := cl.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	<-bv.entered

	read := make(chan int)
	go func() {
		srv.Verdict()
		read <- srv.Delivered()
	}()
	select {
	case got := <-read:
		if got == len(stream) {
			t.Errorf("Delivered = %d while a frame is still in Verify", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Verdict blocked behind a Verify in progress")
	}
	release()
	if err := srv.WaitDelivered(len(stream), 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestOutageDropsExactlyItsWindow pins exact fault milestones: a plan
// that crashes the sink at processed frame 100 and restores it at 150
// drops exactly frames 100..149, even when one drained batch spans the
// crash. The sink parks verifying frame 0, alone in its batch, until the
// client's other frames fill the ingest queue, so the next batch is a
// full queue of 256 frames that crosses frame 100. The final verdict must
// equal an in-process fold of frames [0, 100) ∪ [150, 400) of the same
// stream.
func TestOutageDropsExactlyItsWindow(t *testing.T) {
	const packets, crash, restore = 400, 100, 150
	sc := testScenario(t)
	bv := &blockingVerifier{calls: 1, entered: make(chan struct{}), released: make(chan struct{})}
	reg := obs.New()
	srv, err := Listen("127.0.0.1:0", "", Config{
		NewVerifier: func() sink.Verifier {
			bv.Verifier = sc.NewVerifier()
			return bv
		},
		Topo:       sc.Topo,
		Obs:        reg,
		QueueDepth: 256,
		Faults: &fault.Plan{Events: []fault.Event{
			{At: crash, Kind: fault.SinkCrash},
			{At: restore, Kind: fault.SinkRestore},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	release := sync.OnceFunc(func() { close(bv.released) })
	defer release()

	stream := sc.Stream(packets)
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(stream[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-bv.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the sink did not start verifying frame 0 within 10 s")
	}
	sent := make(chan error, 1)
	go func() {
		for _, msg := range stream[1:] {
			if err := cl.Send(msg); err != nil {
				sent <- err
				return
			}
		}
		sent <- cl.Close()
	}()
	for deadline := time.Now().Add(10 * time.Second); len(srv.ingest) < cap(srv.ingest); {
		if time.Now().After(deadline) {
			t.Fatalf("ingest queue holds %d of %d frames after 10 s", len(srv.ingest), cap(srv.ingest))
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitDelivered(packets-(restore-crash), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("transport.chaos.dropped_while_down").Value(); got != restore-crash {
		t.Errorf("dropped_while_down = %d, want %d", got, restore-crash)
	}
	if got := srv.Delivered(); got != packets-(restore-crash) {
		t.Errorf("Delivered = %d, want %d", got, packets-(restore-crash))
	}

	tr := sc.NewTracker()
	for i, msg := range stream {
		if i < crash || i >= restore {
			tr.Observe(msg, 0)
		}
	}
	if got, want := loadgen.FormatVerdict(srv.Verdict()), loadgen.FormatVerdict(tr.Verdict()); got != want {
		t.Errorf("verdict after the outage:\n got %s\nwant %s", got, want)
	}
}
