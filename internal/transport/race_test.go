package transport

import (
	"sync"
	"testing"
	"time"

	"pnm/internal/fault"
	"pnm/internal/loadgen"
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
// and the verdict still pin that no packet was lost or corrupted.
func TestPooledMessageReuseRaceFree(t *testing.T) {
	const clients, packets = 6, 150
	sc := testScenario(t)
	srv, err := Listen("127.0.0.1:0", "", Config{
		NewVerifier: sc.NewVerifier,
		Topo:        sc.Topo,
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
