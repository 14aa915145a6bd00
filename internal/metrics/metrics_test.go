package metrics

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
	g.Set(-7)
	g.Add(2)
	if g.Value() != -5 {
		t.Fatalf("gauge = %d, want -5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Sum != 5626 {
		t.Fatalf("count=%d sum=%d, want 6/5626", s.Count, s.Sum)
	}
	wantCounts := []int64{2, 2, 1, 1} // (≤10, ≤100, ≤1000, overflow)
	if len(s.Buckets) != len(wantCounts) {
		t.Fatalf("got %d buckets, want %d", len(s.Buckets), len(wantCounts))
	}
	for i, want := range wantCounts {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket %d: count %d, want %d", i, s.Buckets[i].Count, want)
		}
	}
	if s.Buckets[0].Le != 10 || s.Buckets[3].Le != math.MaxInt64 {
		t.Fatalf("bucket bounds = %d...%d", s.Buckets[0].Le, s.Buckets[3].Le)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	for name, bounds := range map[string][]int64{
		"empty":      {},
		"descending": {10, 5},
		"duplicate":  {5, 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewHistogram did not panic", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("h", []int64{1, 2}) != r.Histogram("h", []int64{9}) {
		t.Fatal("Histogram not idempotent")
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests.query").Add(3)
	r.Gauge("inflight").Set(2)
	r.Histogram("latency", []int64{100, 1000}).Observe(250)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["requests.query"] != 3 || s.Gauges["inflight"] != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	h := s.Histograms["latency"]
	if h.Count != 1 || h.Sum != 250 || len(h.Buckets) != 3 || h.Buckets[1].Count != 1 {
		t.Fatalf("histogram snapshot = %+v", h)
	}
}

// TestConcurrentUpdates exists to run the whole surface under -race.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h", DefaultLatencyBuckets)
			g := r.Gauge("g")
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Inc()
				h.Observe(int64(i))
				g.Dec()
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", DefaultLatencyBuckets).Snapshot().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

// TestSnapshotQuantile: quantile estimation returns the bucket upper
// bound where the cumulative count crosses the target, MaxInt64 for
// the overflow bucket, and 0 when empty.
func TestSnapshotQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	if q := h.Snapshot().Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
	for i := 0; i < 98; i++ {
		h.Observe(5) // le=10
	}
	h.Observe(50)  // le=100
	h.Observe(500) // le=1000
	s := h.Snapshot()
	if q := s.Quantile(0.50); q != 10 {
		t.Fatalf("p50 = %d, want 10", q)
	}
	if q := s.Quantile(0.99); q != 100 {
		t.Fatalf("p99 = %d, want 100", q)
	}
	if q := s.Quantile(1.0); q != 1000 {
		t.Fatalf("p100 = %d, want 1000", q)
	}
	h.Observe(99999) // overflow bucket
	if q := h.Snapshot().Quantile(1.0); q != math.MaxInt64 {
		t.Fatalf("overflow p100 = %d, want MaxInt64", q)
	}
}
