package queue

import (
	"sync"
	"testing"
	"time"
)

func TestStringAndParse(t *testing.T) {
	for _, p := range []Policy{Block, DropNewest, DropOldest} {
		got, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("Parse(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("Parse(bogus): want error")
	}
	if s := Policy(42).String(); s != "Policy(42)" {
		t.Fatalf("unknown policy String = %q", s)
	}
}

// TestOffer runs every policy against every queue state a producer can
// meet. The queue is depth 1 and holds item 1 when full; the offered item
// is 2. Every call must return within the deadline unless the row says it
// blocks, and a blocked call must return once stop closes.
func TestOffer(t *testing.T) {
	type want struct {
		out    Outcome
		stalls int
		evicts int
		blocks bool // Offer waits until the test closes stop
	}
	cases := []struct {
		name        string
		full        bool // the queue holds item 1 before the offer
		drain       bool // a consumer takes one item once the offer stalls
		stop, abort bool // closed before the offer
		want        map[Policy]want
	}{
		{name: "room", want: map[Policy]want{
			Block:      {out: Admitted},
			DropNewest: {out: Admitted},
			DropOldest: {out: Admitted},
		}},
		{name: "full/draining", full: true, drain: true, want: map[Policy]want{
			Block:      {out: Admitted, stalls: 1},
			DropNewest: {out: Refused},
			DropOldest: {out: Admitted, evicts: 1},
		}},
		{name: "full/wedged", full: true, want: map[Policy]want{
			Block:      {out: Stopped, stalls: 1, blocks: true},
			DropNewest: {out: Refused},
			DropOldest: {out: Admitted, evicts: 1},
		}},
		{name: "full/stop", full: true, stop: true, want: map[Policy]want{
			Block:      {out: Stopped, stalls: 1},
			DropNewest: {out: Refused},
			DropOldest: {out: Stopped},
		}},
		{name: "full/abort", full: true, abort: true, want: map[Policy]want{
			Block:      {out: Aborted, stalls: 1},
			DropNewest: {out: Refused},
			DropOldest: {out: Admitted, evicts: 1},
		}},
	}
	for _, tc := range cases {
		for _, p := range []Policy{Block, DropNewest, DropOldest} {
			t.Run(tc.name+"/"+p.String(), func(t *testing.T) {
				w := tc.want[p]
				ch := make(chan int, 1)
				if tc.full {
					ch <- 1
				}
				stop, abort := make(chan struct{}), make(chan struct{})
				if tc.stop {
					close(stop)
				}
				if tc.abort {
					close(abort)
				}
				stalled := make(chan struct{})
				if tc.drain {
					go func() {
						select {
						case <-stalled:
							<-ch
						case <-stop:
						}
					}()
					defer func() {
						if !tc.stop {
							close(stop)
						}
					}()
				}
				var stalls, evicts int
				var evicted []int
				done := make(chan Outcome, 1)
				go func() {
					done <- Offer(ch, 2, p, stop, abort,
						func() { stalls++; close(stalled) },
						func(old int) { evicts++; evicted = append(evicted, old) })
				}()
				var got Outcome
				if w.blocks {
					// Past the stall nothing but stop can release it.
					select {
					case <-stalled:
					case <-time.After(5 * time.Second):
						t.Fatal("Offer never stalled on a wedged queue")
					}
					select {
					case got = <-done:
						t.Fatalf("Offer returned %v on a wedged queue; want it to block", got)
					default:
					}
					close(stop)
				}
				select {
				case got = <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("Offer still blocked after 5s")
				}
				if got != w.out || stalls != w.stalls || evicts != w.evicts {
					t.Fatalf("Offer = %v with %d stalls, %d evictions; want %v, %d, %d",
						got, stalls, evicts, w.out, w.stalls, w.evicts)
				}
				for _, old := range evicted {
					if old != 1 {
						t.Fatalf("evicted item %d, want the resident item 1", old)
					}
				}
				// The queue holds the offered item iff it was admitted.
				wantHead := 1
				if got == Admitted {
					wantHead = 2
				}
				select {
				case head := <-ch:
					if head != wantHead {
						t.Fatalf("queue head = %d, want %d", head, wantHead)
					}
				default:
					if tc.full || got == Admitted {
						t.Fatal("queue empty after the offer")
					}
				}
			})
		}
	}
}

// TestOfferDropOldestReturnsAfterStop races two DropOldest producers
// against a depth-1 queue that nobody drains: each keeps evicting the
// other's item. Closing stop must end both loops.
func TestOfferDropOldestReturnsAfterStop(t *testing.T) {
	ch := make(chan int, 1)
	ch <- 0
	stop := make(chan struct{})
	evicting := make(chan struct{})
	var once sync.Once
	evict := func(int) { once.Do(func() { close(evicting) }) }
	var producers sync.WaitGroup
	for g := 1; g <= 2; g++ {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for Offer(ch, g, DropOldest, stop, nil, nil, evict) == Admitted {
			}
		}()
	}
	<-evicting
	close(stop)
	done := make(chan struct{})
	go func() {
		producers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DropOldest Offer still spinning 5s after stop closed")
	}
}

// TestOfferZeroAlloc pins the two paths a flooded sink takes per frame —
// the non-blocking send and the DropNewest refusal — at zero allocations,
// callbacks included: Offer must not make them escape.
func TestOfferZeroAlloc(t *testing.T) {
	ch := make(chan int, 1)
	stop := make(chan struct{})
	var stalls, evicts int
	stall := func() { stalls++ }
	evict := func(int) { evicts++ }
	if allocs := testing.AllocsPerRun(1000, func() {
		if Offer(ch, 1, Block, stop, nil, stall, evict) != Admitted {
			t.Fatal("offer to an empty queue not admitted")
		}
		<-ch
	}); allocs != 0 {
		t.Fatalf("admitting offer: %.1f allocs, want 0", allocs)
	}
	ch <- 0
	if allocs := testing.AllocsPerRun(1000, func() {
		if Offer(ch, 1, DropNewest, stop, nil, stall, evict) != Refused {
			t.Fatal("DropNewest offer to a full queue not refused")
		}
	}); allocs != 0 {
		t.Fatalf("DropNewest offer: %.1f allocs, want 0", allocs)
	}
	if stalls != 0 || evicts != 0 {
		t.Fatalf("stalls %d, evictions %d; want none", stalls, evicts)
	}
}
