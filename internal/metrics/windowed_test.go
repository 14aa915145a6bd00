package metrics

import (
	"math"
	"testing"
)

// TestWindowedRotation: observations land in the current window only,
// Rotate returns exactly the closed window, and a recycled slot comes
// back zeroed after the ring wraps.
func TestWindowedRotation(t *testing.T) {
	w := NewWindowed([]int64{10, 100}, 3)
	if w.Windows() != 3 {
		t.Fatalf("Windows() = %d, want 3", w.Windows())
	}

	w.Observe(5)
	w.Observe(50)
	s := w.Rotate()
	if s.Count != 2 || s.Sum != 55 {
		t.Fatalf("closed window = count %d sum %d, want 2/55", s.Count, s.Sum)
	}

	// Nothing observed in the new window.
	if s := w.Rotate(); s.Count != 0 {
		t.Fatalf("empty window count = %d, want 0", s.Count)
	}

	// Wrap the ring: the slot that held {5,50} must come back zeroed.
	w.Observe(7)
	if s := w.Rotate(); s.Count != 1 || s.Sum != 7 {
		t.Fatalf("wrapped window = count %d sum %d, want 1/7", s.Count, s.Sum)
	}
	w.Observe(999)
	if s := w.Rotate(); s.Count != 1 || s.Sum != 999 {
		t.Fatalf("recycled slot not reset: count %d sum %d", s.Count, s.Sum)
	}
	if w.Rotations() != 4 {
		t.Fatalf("Rotations() = %d, want 4", w.Rotations())
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

// TestHistogramReset: Reset zeroes buckets, count and sum.
func TestHistogramReset(t *testing.T) {
	h := NewHistogram([]int64{10})
	h.Observe(5)
	h.Observe(500)
	h.Reset()
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Buckets[0].Count != 0 || s.Buckets[1].Count != 0 {
		t.Fatalf("reset histogram not empty: %+v", s)
	}
}
