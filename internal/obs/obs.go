// Package obs provides the allocation-light observability primitives the
// sink hot path and the live simulator are instrumented with: monotonic
// counters, power-of-two histograms, and a named registry with a
// deterministic (name-sorted) dump.
//
// The package is deliberately wall-clock free: every value is a pure count
// of events, so instrumented deterministic packages (internal/sink,
// internal/netsim, internal/experiment) stay inside the repository's
// byte-identical-results contract — pnmlint's wallclock rule covers
// internal/obs with no allow-listing needed.
//
// All types are nil-safe: a nil *Counter, *Histogram or *Registry turns
// every method into a cheap no-op, so uninstrumented code paths pay one
// nil check and nothing else. Counters and histograms use atomic adds and
// may be shared across goroutines even though the objects they instrument
// (tracker, resolvers) are single-goroutine.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. A nil counter is a no-op.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. A nil counter reads zero.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histogramBuckets is bucket 0 for the value 0 plus one bucket per
// bit-length: bucket k counts values in [2^(k-1), 2^k).
const histogramBuckets = 65

// Histogram accumulates a distribution of non-negative integer samples in
// power-of-two buckets — fixed size, no allocation per observation.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histogramBuckets]atomic.Uint64
}

// Observe records one sample. A nil histogram is a no-op.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v at the cost of one: a hot path
// can tally a common value in a plain local and publish it once, leaving
// the histogram exactly as n Observe(v) calls would. A nil histogram is a
// no-op.
func (h *Histogram) ObserveN(v, n uint64) {
	if h == nil {
		return
	}
	h.count.Add(n)
	h.sum.Add(v * n)
	h.buckets[bits.Len64(v)].Add(n)
}

// Count returns how many samples were observed. Nil reads zero.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed samples. Nil reads zero.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean sample, or zero with no samples.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Buckets returns the non-empty buckets as (upper-bound, count) pairs in
// increasing bound order. Bucket bounds are exclusive powers of two; the
// value 0 reports bound 1.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	for k := 0; k < histogramBuckets; k++ {
		if n := h.buckets[k].Load(); n > 0 {
			bound := uint64(1) << k
			if k == 64 {
				bound = 1<<64 - 1
			}
			out = append(out, Bucket{Bound: bound, Count: n})
		}
	}
	return out
}

// Bucket is one histogram bucket: Count samples below Bound.
type Bucket struct {
	Bound uint64
	Count uint64
}

// Metric is one named measurement in a registry snapshot.
type Metric struct {
	// Name is the registry key.
	Name string
	// Kind is "counter" or "histogram".
	Kind string
	// Value is the counter value, or the histogram sample count.
	Value uint64
	// Sum and Buckets are populated for histograms only.
	Sum     uint64
	Buckets []Bucket
}

// Registry is a named collection of counters and histograms. Lookups are
// synchronized so any goroutine may bind metrics; hot paths should bind
// once and hold the returned pointer.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns every metric sorted by name — the deterministic order
// every dump format derives from.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.histograms))
	for name := range r.counters {
		names = append(names, name)
	}
	for name := range r.histograms {
		names = append(names, name)
	}
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		histograms[name] = h
	}
	r.mu.Unlock()

	sort.Strings(names)
	out := make([]Metric, 0, len(names))
	for _, name := range names {
		if c, ok := counters[name]; ok {
			out = append(out, Metric{Name: name, Kind: "counter", Value: c.Value()})
			continue
		}
		h := histograms[name]
		out = append(out, Metric{
			Name: name, Kind: "histogram",
			Value: h.Count(), Sum: h.Sum(), Buckets: h.Buckets(),
		})
	}
	return out
}

// Fprint writes one line per metric, sorted by name. Counters print as
// "name value"; histograms as "name count=N sum=S mean=M".
func (r *Registry) Fprint(w io.Writer) {
	for _, m := range r.Snapshot() {
		switch m.Kind {
		case "counter":
			fmt.Fprintf(w, "%s %d\n", m.Name, m.Value)
		case "histogram":
			fmt.Fprintf(w, "%s count=%d sum=%d mean=%.2f\n", m.Name, m.Value, m.Sum, meanOf(m))
		}
	}
}

// String renders the registry as Fprint would.
func (r *Registry) String() string {
	var b strings.Builder
	r.Fprint(&b)
	return b.String()
}

// Map returns the snapshot as a plain map, built from the sorted snapshot
// — the shape expvar.Func publishes on the commands' -debug endpoint
// (internal/debugserver).
func (r *Registry) Map() map[string]any {
	out := make(map[string]any)
	for _, m := range r.Snapshot() {
		switch m.Kind {
		case "counter":
			out[m.Name] = m.Value
		case "histogram":
			out[m.Name] = map[string]any{
				"count": m.Value, "sum": m.Sum, "mean": meanOf(m),
			}
		}
	}
	return out
}

// meanOf computes a histogram metric's mean sample.
func meanOf(m Metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return float64(m.Sum) / float64(m.Value)
}
