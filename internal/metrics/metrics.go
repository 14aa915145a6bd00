// Package metrics is a small, dependency-free instrumentation layer:
// atomic counters, gauges, and fixed-bucket histograms, collected in a
// Registry whose Snapshot is a plain JSON-marshalable value.
//
// The package exists because the ROADMAP's production target needs the
// accounting the ParaPLL-adjacent systems papers lean on — per-phase
// work and communication volume (Jin et al., PLaNT) — to be observable
// at runtime, not reconstructed after the fact. Everything on the
// update path is a single atomic add, so instruments can sit on serving
// and indexing hot paths without introducing contention.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can move in both directions (e.g.
// in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with bounds[i-1] < v <= bounds[i]; one implicit
// overflow bucket catches everything above the last bound. Observe is
// two atomic adds plus a binary search over the (small, immutable)
// bound slice — safe for concurrent use.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds. It panics on unsorted or empty bounds — histogram
// shapes are static configuration, not data.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	own := make([]int64, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds must be strictly increasing (bound %d: %d <= %d)",
				i, own[i], own[i-1]))
		}
	}
	return &Histogram{bounds: own, buckets: make([]atomic.Int64, len(own)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Bucket is one histogram bucket in a snapshot: the count of
// observations at or below Le (and above the previous bound). The
// overflow bucket reports Le = math.MaxInt64.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram. Buckets are
// non-cumulative; empty buckets are included so consumers can diff
// successive snapshots positionally.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot copies the histogram's current state. Concurrent Observes
// may tear between count and buckets; each individual value is exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]Bucket, len(h.buckets)),
	}
	for i := range h.buckets {
		le := int64(math.MaxInt64)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = Bucket{Le: le, Count: h.buckets[i].Load()}
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) from bucket counts:
// the upper bound of the bucket where the cumulative count reaches
// ceil(q * total) — a conservative "the quantile is at most X".
// Observations beyond the last bound report math.MaxInt64 (any finite
// threshold reads that as a breach, which is the safe direction for an
// SLO). An empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= target {
			return b.Le
		}
	}
	return s.Buckets[len(s.Buckets)-1].Le
}

// DefaultLatencyBuckets covers request latencies in microseconds, from
// sub-50µs in-memory hits to multi-second outliers.
var DefaultLatencyBuckets = []int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 5_000_000,
}

// DefaultSizeBuckets covers payload sizes in bytes (1 KiB – 256 MiB).
var DefaultSizeBuckets = []int64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
}

// Registry is a named collection of instruments. Lookup methods
// get-or-create under a mutex; the returned instruments themselves are
// lock-free, so callers should resolve names once and hold the pointer
// rather than looking up per operation.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Later calls return the existing histogram and
// ignore bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry.
// encoding/json emits the maps with sorted keys, so serialized
// snapshots are stable and diffable.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the current value of every registered instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
