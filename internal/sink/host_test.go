package sink

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/topology"
)

// hostEnv builds a host over an n-node chain whose factory makes PNM
// verifier chains on the topology resolver, as both live hosts do, and
// one fully marked message from the deepest node. builds counts the
// factory's calls.
func hostEnv(t *testing.T, n int, reg *obs.Registry) (h *Host, msg packet.Message, builds *int) {
	t.Helper()
	topo, err := topology.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	scheme := marking.PNM{P: 1}
	builds = new(int)
	h = NewHost(func() Verifier {
		*builds++
		v, err := NewVerifier(scheme, testKS, n, NewTopologyResolver(testKS, topo))
		if err != nil {
			t.Error(err)
		}
		return v
	}, topo, reg)
	return h, markedMessage(t, scheme, n), builds
}

// TestHostCrashRestore pins the host's crash/restore contract: both are
// idempotent, Fold drops while the host is down, the restored tracker
// carries the pre-crash packet count and verdict on a fresh verifier
// chain, and the registry-backed sink.tracker.* counters continue across
// the restore instead of rewinding.
func TestHostCrashRestore(t *testing.T) {
	const n, before = 9, 5
	reg := obs.New()
	h, msg, builds := hostEnv(t, n, reg)
	for i := 0; i < before; i++ {
		if !h.Fold(msg, 0, nil) {
			t.Fatalf("Fold %d dropped on a live host", i)
		}
	}
	h.Publish(before)
	verdict := h.Verdict()
	if !verdict.HasStop {
		t.Fatalf("no stop after %d folds: %+v", before, verdict)
	}

	if !h.Crash() {
		t.Fatal("Crash of a live host reported no change")
	}
	ckpt := h.ckpt
	if h.Crash() {
		t.Error("second Crash reported a change")
	}
	if !reflect.DeepEqual(h.ckpt, ckpt) {
		t.Error("second Crash rewrote the checkpoint")
	}
	if !h.Down() {
		t.Error("Down = false after Crash")
	}
	if h.Fold(msg, 0, nil) {
		t.Error("Fold folded while the host was down")
	}
	if got := h.Verdict(); !reflect.DeepEqual(got, verdict) {
		t.Errorf("verdict while down %+v, want the crashed tracker's %+v", got, verdict)
	}

	if !h.Restore() {
		t.Fatal("Restore of a down host reported no change")
	}
	restored := h.tracker
	if h.Restore() {
		t.Error("second Restore reported a change")
	}
	if h.tracker != restored || *builds != 2 {
		t.Errorf("second Restore rebuilt the sink (%d factory calls, want 2)", *builds)
	}
	if h.Down() {
		t.Error("Down = true after Restore")
	}
	if got := restored.Packets(); got != before {
		t.Errorf("restored Packets() = %d, want %d", got, before)
	}
	if got := h.Verdict(); !reflect.DeepEqual(got, verdict) {
		t.Errorf("restored verdict %+v, want pre-crash %+v", got, verdict)
	}
	if got := h.Delivered(); got != before {
		t.Errorf("Delivered = %d across the outage, want %d", got, before)
	}

	if !h.Fold(msg, 0, nil) {
		t.Fatal("Fold dropped after Restore")
	}
	if got := restored.Packets(); got != before+1 {
		t.Errorf("Packets() = %d after one more fold, want %d", got, before+1)
	}
	for name, want := range map[string]uint64{
		"sink.tracker.packets":       before + 1,
		"sink.tracker.chains_folded": before + 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d (counters must continue across a restore)", name, got, want)
		}
	}
}

// TestHostAwait pins the progress wait: cond is checked first, then after
// every Publish, and expired or stop end the wait with false.
func TestHostAwait(t *testing.T) {
	h, _, _ := hostEnv(t, 4, nil)
	never := make(chan struct{})
	if !h.Await(func(got int) bool { return got == 0 }, nil, never) {
		t.Fatal("Await on a condition that already holds returned false")
	}
	done := make(chan bool)
	go func() { done <- h.Await(func(got int) bool { return got >= 3 }, nil, never) }()
	h.Publish(1)
	h.Publish(0)
	h.Publish(2)
	if !<-done {
		t.Fatal("Await returned false after the count reached its target")
	}
	expired := make(chan time.Time, 1)
	expired <- time.Time{}
	if h.Await(func(got int) bool { return got > 3 }, expired, never) {
		t.Error("Await returned true when expired fired")
	}
	stop := make(chan struct{})
	close(stop)
	if h.Await(func(got int) bool { return got > 3 }, nil, stop) {
		t.Error("Await returned true when stop fired")
	}
}

// TestHostRestoreFromAnotherGoroutine runs the hand-off both live hosts
// depend on under -race: one goroutine folds and publishes until 400
// frames have folded, while another crashes, restores and reads every
// 20, so each Restore's fresh verifier chain reaches the folding
// goroutine through the host alone.
func TestHostRestoreFromAnotherGoroutine(t *testing.T) {
	const n, frames = 6, 400
	h, msg, _ := hostEnv(t, n, obs.New())
	done := make(chan struct{})
	var folder sync.WaitGroup
	folder.Add(1)
	folded := 0
	go func() {
		defer folder.Done()
		defer close(done)
		for folded < frames {
			if h.Fold(msg, 0, nil) {
				folded++
				h.Publish(1)
			}
		}
	}()
	// Crash and restore each time another 20 frames have been published,
	// until the folder is done.
	cycles := 0
	for h.Await(func(got int) bool { return got >= (cycles+1)*20 }, nil, done) {
		h.Crash()
		h.Verdict()
		h.Restore()
		cycles++
	}
	folder.Wait()
	if cycles != frames/20 {
		t.Errorf("%d crash/restore cycles, want %d", cycles, frames/20)
	}
	if got := h.Delivered(); got != frames {
		t.Errorf("Delivered = %d, want %d", got, frames)
	}
	if got := h.tracker.Packets(); got != frames {
		t.Errorf("tracker Packets() = %d, want %d: a fold was lost or doubled across restores", got, frames)
	}
}

// TestHostFoldPublishZeroAlloc pins the steady-state path both live hosts
// run per frame, Host.Fold then Publish, at zero allocations once the
// verifier's caches and the order matrix are warm and no waiter parks.
func TestHostFoldPublishZeroAlloc(t *testing.T) {
	h, msg, _ := hostEnv(t, 9, obs.New())
	for i := 0; i < 8; i++ {
		h.Fold(msg, 0, nil)
		h.Publish(1)
	}
	dropped := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if !h.Fold(msg, 0, nil) {
			dropped++
		}
		h.Publish(1)
	}); allocs != 0 {
		t.Errorf("Fold+Publish allocates %.2f times per frame, want 0", allocs)
	}
	if dropped > 0 {
		t.Errorf("a live host dropped %d frames", dropped)
	}
}
