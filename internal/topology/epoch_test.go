package topology

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// TestEpochSetVersionsAreDense advances a set through three epochs,
// stamping each before advancing past it: versions are dense from 0, every
// pinned epoch reads back as the snapshot advanced as that version, and
// the set retains exactly the window from the oldest pin to the current
// epoch.
func TestEpochSetVersionsAreDense(t *testing.T) {
	base, err := NewChain(4)
	if err != nil {
		t.Fatal(err)
	}
	set := NewEpochSet(base)
	if got := set.Current(); got.Version != 0 || got.Net != base {
		t.Fatalf("base epoch = %+v, want version 0 over base", got.Version)
	}
	if set.Len() != 1 {
		t.Fatalf("Len = %d, want 1", set.Len())
	}
	nets := []*Network{base}
	for i := 1; i <= 3; i++ {
		if v := set.Stamp(); int(v) != i-1 {
			t.Fatalf("Stamp before advance %d = %d", i, v)
		}
		next := base.Rewire(int64(i))
		ep := set.Advance(next)
		if int(ep.Version) != i {
			t.Fatalf("Advance %d returned version %d", i, ep.Version)
		}
		nets = append(nets, next)
	}
	for v, want := range nets {
		if got := set.At(EpochVersion(v)); got != want {
			t.Fatalf("At(%d) returned wrong snapshot", v)
		}
	}
	if got := set.Current(); got.Version != 3 || got.Net != nets[3] {
		t.Fatalf("Current = version %d, want 3", got.Version)
	}
	if st := set.Stats(); st != (EpochStats{Advanced: 4, Retained: 4, Pinned: 3}) {
		t.Fatalf("Stats = %+v, want 4 advanced and retained, 3 pinned", st)
	}
}

func TestEpochSetAtClampsUnknownVersions(t *testing.T) {
	base, err := NewChain(3)
	if err != nil {
		t.Fatal(err)
	}
	set := NewEpochSet(base)
	next := set.Advance(base.Rewire(7)).Net
	if got := set.At(99); got != next {
		t.Fatal("At(future) should clamp to the current epoch")
	}
}

func TestEpochSetAdvanceSameNetworkStillAdvances(t *testing.T) {
	base, err := NewChain(3)
	if err != nil {
		t.Fatal(err)
	}
	set := NewEpochSet(base)
	ep := set.Advance(base)
	if ep.Version != 1 || set.Len() != 2 {
		t.Fatalf("re-advancing the base net: version %d, len %d; want 1, 2", ep.Version, set.Len())
	}
}

// chainEpochs returns a 6-node chain and n Rewire snapshots of it, the
// base first.
func chainEpochs(t *testing.T, n int) []*Network {
	t.Helper()
	base, err := NewChain(6)
	if err != nil {
		t.Fatal(err)
	}
	nets := []*Network{base}
	for i := 1; i < n; i++ {
		nets = append(nets, base.Rewire(int64(i)))
	}
	return nets
}

// TestEpochSetPinsBoundHistory walks the retention rule: an epoch nobody
// pins goes as soon as it is superseded, a pinned epoch survives later
// advances, the oldest epochs go once their pins are back, a released
// version reads as the oldest retained one and is counted, and Len still
// counts every epoch.
func TestEpochSetPinsBoundHistory(t *testing.T) {
	nets := chainEpochs(t, 8)
	set := NewEpochSet(nets[0])
	set.Advance(nets[1])
	set.Advance(nets[2])
	if st := set.Stats(); st != (EpochStats{Advanced: 3, Retained: 1}) {
		t.Fatalf("after two unpinned advances: %+v, want only the current epoch of 3", st)
	}
	if v := set.Stamp(); v != 2 {
		t.Fatalf("Stamp = %d, want 2", v)
	}
	set.Advance(nets[3])          // 2 pinned, 3 current
	set.Advance(nets[4])          // 3 idle between a pin and the current epoch
	if v := set.Stamp(); v != 4 { // a second pin, on the current epoch
		t.Fatalf("Stamp = %d, want 4", v)
	}
	set.Advance(nets[5])
	if st := set.Stats(); st.Retained != 4 || st.Pinned != 2 {
		t.Fatalf("with epochs 2 and 4 pinned: %+v, want 4 retained (2..5), 2 pinned", st)
	}
	for v := 2; v <= 5; v++ {
		if set.At(EpochVersion(v)) != nets[v] {
			t.Fatalf("At(%d) returned the wrong snapshot while retained", v)
		}
	}
	set.Done(4, 1) // 4 is not the oldest: nothing goes
	if st := set.Stats(); st.Retained != 4 {
		t.Fatalf("after Done(4): %d retained, want 4", st.Retained)
	}
	set.Done(2, 1) // 2, 3 and 4 go; 5 is current
	st := set.Stats()
	if st != (EpochStats{Advanced: 6, Retained: 1, Unpinned: 2}) {
		t.Fatalf("after Done(2): %+v, want only the current epoch left", st)
	}
	if set.Len() != 6 || set.Current().Version != 5 || set.Current().Net != nets[5] {
		t.Fatalf("Len %d, Current %d: the bookkeeping lost an epoch", set.Len(), set.Current().Version)
	}
	if set.At(1) != nets[5] || set.At(99) != nets[5] {
		t.Fatal("a released or future version must read as a retained epoch")
	}
	if got := set.Stats().StaleReads; got != 1 {
		t.Fatalf("StaleReads = %d, want 1 (the future read is not stale)", got)
	}
	set.Advance(nets[6])
	if st := set.Stats(); st.Retained != 1 || st.Advanced != 7 {
		t.Fatalf("after an unpinned advance: %+v, want 1 retained of 7", st)
	}
}

// TestEpochSetDoneTooOftenPanics: handing back a stamp twice, or one
// never taken, is a programming error.
func TestEpochSetDoneTooOftenPanics(t *testing.T) {
	nets := chainEpochs(t, 3)
	for name, misuse := range map[string]func(*EpochSet){
		"never stamped": func(s *EpochSet) { s.Done(0, 1) },
		"twice":         func(s *EpochSet) { s.Done(s.Stamp(), 2) },
		"released": func(s *EpochSet) {
			v := s.Stamp()
			s.Advance(nets[1])
			s.Done(v, 1)
			s.Done(v, 1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			misuse(NewEpochSet(nets[0]))
		})
	}
}

// TestEpochStampZeroAlloc pins a set's steady state: stamping,
// advancing and handing the stamp back, with the window inside its
// high-water size, allocate nothing.
func TestEpochStampZeroAlloc(t *testing.T) {
	nets := chainEpochs(t, 2)
	set := NewEpochSet(nets[0])
	step := func() {
		v := set.Stamp()
		set.Advance(nets[1])
		set.Done(v, 1)
	}
	step() // warm: the window grows to 2
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("stamp + advance + unpin allocated %.1f times per call", allocs)
	}
	if st := set.Stats(); st.Retained != 1 || st.Pinned != 0 {
		t.Fatalf("after the steady state: %+v, want 1 retained, 0 pinned", st)
	}
}

// TestEpochSetConcurrentPins runs a pinning host's pattern: readers stamp,
// resolve the stamped version and hand it back while one writer advances.
// Every reader sees a dense prefix: Current is never older than a Len read
// before it, a stamp never names an epoch older than that either, and no
// stamped version ever reads as released. At rest the set holds no pins
// and only its current epoch.
func TestEpochSetConcurrentPins(t *testing.T) {
	const advances, readers, stamps = 300, 3, 2000
	nets := chainEpochs(t, advances+1)
	set := NewEpochSet(nets[0])
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < stamps; k++ {
				n := set.Len()
				cur := set.Current()
				if int(cur.Version) < n-1 || int(cur.Version) > advances || cur.Net != nets[cur.Version] {
					t.Errorf("Current = version %d after Len %d, or the wrong snapshot", cur.Version, n)
					return
				}
				v := set.Stamp()
				if int(v) < n-1 || set.At(v) != nets[v] {
					t.Errorf("stamped version %d after Len %d read the wrong snapshot", v, n)
				}
				set.Done(v, 1)
			}
		}()
	}
	for i := 1; i <= advances; i++ {
		if ep := set.Advance(nets[i]); ep.Version != EpochVersion(i) || ep.Net != nets[i] {
			t.Errorf("Advance %d returned version %d", i, ep.Version)
		}
	}
	wg.Wait()
	want := EpochStats{Advanced: advances + 1, Retained: 1, Unpinned: readers * stamps}
	if st := set.Stats(); st != want {
		t.Fatalf("at rest: %+v, want %+v", st, want)
	}
}

// TestEpochSetWindowShrinksItsArrays drains a backlog: 1,000 epochs each
// pinned before the set advances past it, then every pin handed back. The
// window left is far smaller than its arrays, so it moves to fresh ones
// rather than keeping the backlog's.
func TestEpochSetWindowShrinksItsArrays(t *testing.T) {
	const backlog = 1000
	nets := chainEpochs(t, 2)
	set := NewEpochSet(nets[0])
	for i := 0; i < backlog; i++ {
		set.Stamp()
		set.Advance(nets[1])
	}
	if st := set.Stats(); st.Retained != backlog+1 || st.Pinned != backlog {
		t.Fatalf("with the backlog pinned: %+v, want %d retained, %d pinned", st, backlog+1, backlog)
	}
	for v := 0; v < backlog; v++ {
		set.Done(EpochVersion(v), 1)
	}
	set.mu.RLock()
	nc, pc := cap(set.nets), cap(set.pins)
	set.mu.RUnlock()
	if st := set.Stats(); st.Retained != 1 || st.Pinned != 0 || nc > 10 || pc > 10 {
		t.Fatalf("after the drain: %+v, capacities %d and %d", st, nc, pc)
	}
}

// TestEpochSetRetentionProperty drives random Stamp, Advance and Done
// sequences against a model that counts the pins on each version. After
// every operation the set must retain exactly the window from the oldest
// pinned version to the current one (only the current one when nothing
// is pinned), every pinned version must read back as the snapshot
// advanced as that version, and no read may fall on a released epoch.
func TestEpochSetRetentionProperty(t *testing.T) {
	nets := chainEpochs(t, 8)
	f := func(ops []byte) bool {
		set := NewEpochSet(nets[0])
		pins := map[EpochVersion]int{}
		var cur EpochVersion
		snap := []*Network{nets[0]} // snap[v] is the snapshot advanced as version v
		for i, op := range ops {
			switch op % 3 {
			case 0:
				if v := set.Stamp(); v != cur {
					t.Logf("op %d: Stamp = %d, want %d", i, v, cur)
					return false
				}
				pins[cur]++
			case 1:
				net := nets[int(op/3)%len(nets)]
				if ep := set.Advance(net); ep.Version != cur+1 {
					t.Logf("op %d: Advance = %d, want %d", i, ep.Version, cur+1)
					return false
				}
				cur++
				snap = append(snap, net)
			case 2:
				// Hand back one pin, the (op/3)-th pinned version in order.
				var held []EpochVersion
				for v := EpochVersion(0); v <= cur; v++ {
					if pins[v] > 0 {
						held = append(held, v)
					}
				}
				if len(held) == 0 {
					continue
				}
				v := held[int(op/3)%len(held)]
				set.Done(v, 1)
				if pins[v]--; pins[v] == 0 {
					delete(pins, v)
				}
			}
			oldest, pinned := cur, 0
			for v, n := range pins {
				oldest = min(oldest, v)
				pinned += n
				if set.At(v) != snap[v] {
					t.Logf("op %d: pinned version %d read the wrong snapshot", i, v)
					return false
				}
			}
			st := set.Stats()
			if st.Retained != int(cur-oldest)+1 || st.Pinned != pinned || st.StaleReads != 0 || st.Advanced != int(cur)+1 {
				t.Logf("op %d: %+v, want %d retained, %d pinned, %d advanced", i, st, cur-oldest+1, pinned, cur+1)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}
