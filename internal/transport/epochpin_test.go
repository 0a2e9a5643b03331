package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnm/internal/fault"
	"pnm/internal/loadgen"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/queue"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// epochVerifier returns a verifier factory over the scenario's keys whose
// resolver reads set, as a server with Config.Epochs needs.
func epochVerifier(sc *loadgen.Scenario, set *topology.EpochSet) func() sink.Verifier {
	return func() sink.Verifier {
		v, err := sink.NewVerifier(sc.Scheme, sc.Keys, sc.Topo.NumNodes(), sink.NewTopologyResolverEpochs(sc.Keys, set))
		if err != nil {
			panic(err)
		}
		return v
	}
}

// ledger is a server's frame account, read from its registry.
type ledger struct {
	frames, delivered, dropNewest, dropOldest, down, onClose uint64
}

func readLedger(reg *obs.Registry) ledger {
	return ledger{
		frames:     reg.Counter("transport.frames").Value(),
		delivered:  reg.Counter("transport.delivered").Value(),
		dropNewest: reg.Counter("transport.ingest.queue_drop_newest").Value(),
		dropOldest: reg.Counter("transport.ingest.queue_drop_oldest").Value(),
		down:       reg.Counter("transport.chaos.dropped_while_down").Value(),
		onClose:    reg.Counter("transport.ingest.dropped_on_close").Value(),
	}
}

// settled counts the frames that have left the server, by any path.
func (l ledger) settled() uint64 {
	return l.delivered + l.dropNewest + l.dropOldest + l.down + l.onClose
}

// waitSettled polls until n frames have been read and have all left the
// server. The server hands a frame's epoch pin back before it counts the
// frame, so once this returns no pin of those frames is held.
func waitSettled(t *testing.T, reg *obs.Registry, n uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		l := readLedger(reg)
		if l.frames >= n && l.settled() >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames settled (%+v)\nregistry:\n%s", l.settled(), n, l, reg)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// verifyGate parks every Verify while shut, announcing the first parked
// call on entered, until open closes.
type verifyGate struct {
	shut    atomic.Bool
	once    sync.Once
	entered chan struct{}
	open    chan struct{}
}

// gatedVerifier is a verifier chain behind a verifyGate.
type gatedVerifier struct {
	sink.Verifier
	g *verifyGate
}

func (v gatedVerifier) Verify(msg packet.Message, epoch topology.EpochVersion) sink.Result {
	if v.g.shut.Load() {
		v.g.once.Do(func() { close(v.g.entered) })
		<-v.g.open
	}
	return v.Verifier.Verify(msg, epoch)
}

// TestEpochPinLedger checks the pin contract end to end under every
// overflow policy with a shallow queue. Frames stream through 120
// Rewire epochs, each stamped with the epoch it was marked under; the
// sink crashes after epoch 104 and a fault.Plan restores it after epoch
// 109, so the restored resolver is built over a set that has released
// over a hundred epochs, epoch 0 among them. The last frames are sent
// with the sink parked, so some are dropped by the policy and some are
// still queued at Close. After Close every frame is in the ledger once
// and was handed back once, no pin is left, only the current epoch is
// retained, and no verification ever read a released epoch.
func TestEpochPinLedger(t *testing.T) {
	const epochs, seg, tail, depth = 120, 2, 8, 2
	const crashAt, restoreAt = 105, 110 // in epochs
	sc, err := loadgen.New(loadgen.Config{Nodes: 80, Side: 5, RadioRange: 1.6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nets := []*topology.Network{sc.Topo}
	for e := 1; e <= epochs; e++ {
		nets = append(nets, nets[e-1].Rewire(int64(e)*101))
	}
	stream := churnedStream(sc, nets, seg)
	final := churnedStream(sc, nets[epochs:], tail)

	for _, policy := range []queue.Policy{queue.Block, queue.DropNewest, queue.DropOldest} {
		t.Run(policy.String(), func(t *testing.T) {
			set := topology.NewEpochSet(sc.Topo)
			reg := obs.New()
			gate := &verifyGate{entered: make(chan struct{}), open: make(chan struct{})}
			verifier := epochVerifier(sc, set)
			srv, err := Listen("127.0.0.1:0", "", Config{
				NewVerifier: func() sink.Verifier { return gatedVerifier{Verifier: verifier(), g: gate} },
				Topo:        sc.Topo,
				Epochs:      set,
				QueueDepth:  depth,
				Policy:      policy,
				Obs:         reg,
				Faults: &fault.Plan{Events: []fault.Event{
					{At: crashAt * seg, Kind: fault.SinkCrash},
					{At: restoreAt * seg, Kind: fault.SinkRestore},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			openGate := sync.OnceFunc(func() { close(gate.open) })
			defer srv.Close()
			defer openGate()
			cl, err := Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			send := func(msgs []packet.Message) {
				for _, msg := range msgs {
					if err := cl.Send(msg); err != nil {
						t.Fatal(err)
					}
				}
				if err := cl.Flush(); err != nil {
					t.Fatal(err)
				}
			}

			// Epoch by epoch: each segment is sent once every earlier frame
			// has left, so it is stamped with the epoch it was marked under,
			// and at most seg frames fill the depth-seg queue: none is shed.
			for e := 0; e <= epochs; e++ {
				if e > 0 {
					waitSettled(t, reg, uint64(e*seg))
					if st := set.Stats(); st.Pinned != 0 || st.Retained != 1 {
						t.Fatalf("epoch %d: every frame settled, yet %+v", e-1, st)
					}
					set.Advance(nets[e])
				}
				send(stream[e*seg : (e+1)*seg])
			}
			sent := uint64((epochs + 1) * seg)
			waitSettled(t, reg, sent)

			// Park the sink on the next frame, then send more than the
			// queue holds: the policy sheds or blocks, and Close finds
			// frames queued.
			blocks := reg.Counter("transport.ingest.queue_full_blocks")
			blocks0 := blocks.Value()
			gate.shut.Store(true)
			send(final)
			<-gate.entered
			deadline := time.Now().Add(10 * time.Second)
			for {
				l := readLedger(reg)
				if policy == queue.Block && blocks.Value() > blocks0 ||
					policy != queue.Block && l.frames == sent+tail {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the parked sink's queue never overflowed: %+v", l)
				}
				time.Sleep(time.Millisecond)
			}
			closed := make(chan struct{})
			go func() {
				srv.Close()
				close(closed)
			}()
			<-srv.stop
			openGate()
			<-closed

			l := readLedger(reg)
			if l.frames != l.settled() {
				t.Fatalf("ledger off: %d frames, %d settled (%+v)", l.frames, l.settled(), l)
			}
			if l.down != (restoreAt-crashAt)*seg || l.onClose == 0 {
				t.Fatalf("want %d frames dropped while down and some on close: %+v", (restoreAt-crashAt)*seg, l)
			}
			want := topology.EpochStats{Advanced: epochs + 1, Retained: 1, Unpinned: l.frames}
			if st := set.Stats(); st != want {
				t.Fatalf("after Close: %+v, want %+v", st, want)
			}
			if got := reg.Counter("transport.chaos.sink_restores").Value(); got != 1 {
				t.Fatalf("sink restores = %d, want 1", got)
			}
			// Every verified frame was stamped with its own epoch: a stop
			// would mean a resolver read the wrong tree, the restored one
			// included.
			if stops := reg.Counter("sink.verify.stops").Value(); stops != 0 {
				t.Fatalf("%d honest frames stopped", stops)
			}
		})
	}
}

// heapInUse returns the live heap after two full collections, the second
// freeing what the first only moved to sync.Pool victim caches.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
