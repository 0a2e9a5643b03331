package topology

import (
	"sync"
	"testing"
)

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

// TestEpochSetConcurrentAdvanceAndRead runs the pattern netsim's route
// repair runs against the resolvers: one goroutine advances the set while
// others call At, Current and Len. Every reader must see a dense prefix:
// Current is never older than a Len read before it, and At(v) for any v
// below that Len is the snapshot advanced as version v.
func TestEpochSetConcurrentAdvanceAndRead(t *testing.T) {
	const advances, readers = 300, 3
	nets := make([]*Network, advances+1)
	var err error
	if nets[0], err = NewChain(6); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= advances; i++ {
		nets[i] = nets[i-1].Rewire(int64(i))
	}
	set := NewEpochSet(nets[0])
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				n := set.Len()
				cur := set.Current()
				if int(cur.Version) < n-1 || int(cur.Version) > advances || cur.Net != nets[cur.Version] {
					t.Errorf("Current = version %d after Len %d, or the wrong snapshot", cur.Version, n)
					return
				}
				if v := EpochVersion(k % n); set.At(v) != nets[v] {
					t.Errorf("At(%d) with Len %d returned the wrong snapshot", v, n)
					return
				}
				if n == advances+1 {
					return
				}
			}
		}()
	}
	for i := 1; i <= advances; i++ {
		if ep := set.Advance(nets[i]); ep.Version != EpochVersion(i) || ep.Net != nets[i] {
			t.Errorf("Advance %d returned version %d", i, ep.Version)
		}
	}
	wg.Wait()
	if set.Len() != advances+1 {
		t.Fatalf("Len = %d after %d advances", set.Len(), advances)
	}
}
