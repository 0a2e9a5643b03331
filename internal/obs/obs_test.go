package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter reads non-zero")
	}
	var h *Histogram
	h.Observe(7)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Buckets() != nil {
		t.Fatal("nil histogram reads non-zero")
	}
	var r *Registry
	r.Counter("x").Inc()
	r.Histogram("y").Observe(1)
	if r.Snapshot() != nil || r.String() != "" {
		t.Fatal("nil registry is not empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 1, 2, 3, 8} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 15 {
		t.Fatalf("count=%d sum=%d, want 6/15", h.Count(), h.Sum())
	}
	want := []Bucket{
		{Bound: 1, Count: 1},  // the value 0
		{Bound: 2, Count: 2},  // 1, 1
		{Bound: 4, Count: 2},  // 2, 3
		{Bound: 16, Count: 1}, // 8
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	if m := h.Mean(); m != 2.5 {
		t.Fatalf("mean = %v, want 2.5", m)
	}

	// ObserveN(v, n) is n Observe(v) calls; n = 0 records nothing.
	var g Histogram
	for _, vn := range [][2]uint64{{0, 1}, {1, 2}, {2, 1}, {3, 1}, {8, 1}, {5, 0}} {
		g.ObserveN(vn[0], vn[1])
	}
	if g.Count() != h.Count() || g.Sum() != h.Sum() || fmt.Sprint(g.Buckets()) != fmt.Sprint(got) {
		t.Fatalf("ObserveN histogram count=%d sum=%d buckets=%v, want %d/%d/%v",
			g.Count(), g.Sum(), g.Buckets(), h.Count(), h.Sum(), got)
	}
}

func TestRegistryReturnsSameMetric(t *testing.T) {
	r := New()
	a := r.Counter("hits")
	b := r.Counter("hits")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	if r.Histogram("dist") != r.Histogram("dist") {
		t.Fatal("same name returned distinct histograms")
	}
}

func TestFprintIsSortedAndStable(t *testing.T) {
	r := New()
	r.Counter("z.last").Add(2)
	r.Counter("a.first").Add(1)
	r.Histogram("m.middle").Observe(3)
	want := "a.first 1\nm.middle count=1 sum=3 mean=3.00\nz.last 2\n"
	if got := r.String(); got != want {
		t.Fatalf("dump = %q, want %q", got, want)
	}
	// Dumping twice yields identical bytes (no map-order leakage).
	if r.String() != want {
		t.Fatal("second dump differs")
	}
}

func TestMapMirrorsSnapshot(t *testing.T) {
	r := New()
	r.Counter("c").Add(7)
	r.Histogram("h").Observe(4)
	m := r.Map()
	if m["c"] != uint64(7) {
		t.Fatalf("Map[c] = %v, want 7", m["c"])
	}
	hm, ok := m["h"].(map[string]any)
	if !ok || hm["count"] != uint64(1) || hm["sum"] != uint64(4) {
		t.Fatalf("Map[h] = %v", m["h"])
	}
}

// TestConcurrentUse exercises the atomic paths under -race: many
// goroutines bind and bump the same metrics.
func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	const goroutines, each = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("dist")
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(uint64(i % 7))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*each {
		t.Fatalf("shared = %d, want %d", got, goroutines*each)
	}
	if got := r.Histogram("dist").Count(); got != goroutines*each {
		t.Fatalf("dist count = %d, want %d", got, goroutines*each)
	}
	if !strings.Contains(r.String(), "shared 8000") {
		t.Fatalf("dump = %q", r.String())
	}
}
