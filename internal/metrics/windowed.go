package metrics

import (
	"math"
	"sync"
	"sync/atomic"
)

// WindowedHistogram is a rotating ring of fixed-bucket histograms for
// SLO evaluation over *recent* traffic rather than process lifetime. A
// cumulative histogram can never alarm: an hour of healthy p99 buries
// a five-minute regression. Here Observe lands in the current window,
// Rotate closes it and opens a zeroed one, and verdicts read only the
// most recently closed window(s), so old load can neither mask nor
// fake a current anomaly.
//
// Observe costs one extra atomic load over Histogram.Observe. An
// Observe racing a Rotate may land in the window being recycled; the
// skew is bounded by the race window and SLO consumers tolerate it.
type WindowedHistogram struct {
	mu   sync.Mutex // serializes Rotate calls
	wins []*Histogram
	rot  atomic.Int64 // total rotations; current window = rot % len(wins)
}

// NewWindowed builds a ring of `windows` histograms over the given
// bounds (see NewHistogram). windows < 2 is clamped to 2: one open
// window plus at least one closed window to read.
func NewWindowed(bounds []int64, windows int) *WindowedHistogram {
	if windows < 2 {
		windows = 2
	}
	w := &WindowedHistogram{wins: make([]*Histogram, windows)}
	for i := range w.wins {
		w.wins[i] = NewHistogram(bounds)
	}
	return w
}

// Windows returns the ring size (open window included).
func (w *WindowedHistogram) Windows() int { return len(w.wins) }

// Rotations returns how many times the ring has rotated.
func (w *WindowedHistogram) Rotations() int64 { return w.rot.Load() }

// Observe records one value into the current window.
func (w *WindowedHistogram) Observe(v int64) {
	w.wins[int(uint64(w.rot.Load())%uint64(len(w.wins)))].Observe(v)
}

// Rotate closes the current window and opens a zeroed one, returning a
// snapshot of the window just closed. Call it on a fixed cadence; the
// wall-clock span of a window is the caller's rotation period.
func (w *WindowedHistogram) Rotate() HistogramSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	cur := int(uint64(w.rot.Load()) % uint64(len(w.wins)))
	snap := w.wins[cur].Snapshot()
	// Zero the next slot before publishing the rotation so new
	// observations never mix with the stale epoch it held.
	w.wins[(cur+1)%len(w.wins)].Reset()
	w.rot.Add(1)
	return snap
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
