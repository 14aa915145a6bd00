package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the guide's rule: a percentile is reported from a window
// only if at least this many samples lie beyond it.
const minBeyond = 10

// median returns the middle of xs (mean of the two middles for even
// lengths). It sorts a copy.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns Q1, median and Q3 of xs by the exclusive method —
// the one Python's statistics.quantiles(xs, n=4) uses, so the A/A table
// printed here matches what the acceptance driver computes. Fewer than
// two values collapse to that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// percentile returns the p-quantile (0 < p < 1) of an ascending sample
// by nearest rank, and whether the sample supports it: ok is false when
// fewer than minBeyond samples lie beyond the returned one.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := nearestRank(p, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// nearestRank is the 1-based nearest rank of the p-quantile among n
// samples. The epsilon keeps 0.99*1000 from rounding up to 991.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

// tailLadder is the fixed set of percentiles a tail metric may start at.
var tailLadder = []float64{0.99, 0.90, 0.75, 0.50}

// tailPercentile picks the highest percentile of tailLadder that a
// window of n samples supports (>= minBeyond samples beyond it). The
// median is the floor: a window too small for p75 reports p50.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return p
		}
	}
	return 0.50
}

// windows accumulates one value per window (a per-window median, a
// per-window p99, a trial's wall time) and reports the median over
// windows — the only kind of timing this benchmark reports.
type windows struct {
	vals    []float64
	samples int // samples per window; 0 when a window is one measurement
}

func (w *windows) add(v float64) { w.vals = append(w.vals, v) }

func (w *windows) median() float64 { return median(w.vals) }

// describe renders the window count, samples per window and quartiles
// over windows (times scale, the metric's unit conversion) that every
// metric line carries.
func (w *windows) describe(scale float64) string {
	q1, _, q3 := quartiles(w.vals)
	per := ""
	if w.samples > 0 { // zero: each window is one measurement (a trial, a set-up)
		per = fmt.Sprintf(" samples/window=%d", w.samples)
	}
	all := ""
	if w.samples == 0 && len(w.vals) <= 16 { // few enough to show each
		for _, v := range w.vals {
			all += fmt.Sprintf(" %.4g", v*scale)
		}
		all = " each:" + all
	}
	return fmt.Sprintf("windows=%d%s q1=%.6g q3=%.6g%s", len(w.vals), per, q1*scale, q3*scale, all)
}

// latencyWindow summarises one window of request latencies (seconds):
// its median, its p-quantile, and its tail — the mean of the samples
// beyond that quantile. Both, because when slow requests are a distinct
// population about as large as 1-p (reads that met the write lock are
// ~1 % of reads) the quantile sits on the edge between the two and flips
// from run to run, while the mean beyond it integrates whatever is
// there. It sorts lat in place.
func latencyWindow(lat []float64, p float64) (p50, pp, tail float64) {
	sort.Float64s(lat)
	p50, _ = percentile(lat, 0.50)
	pp, _ = percentile(lat, p)
	beyond := lat[nearestRank(p, len(lat)):]
	if len(beyond) == 0 {
		return p50, pp, lat[len(lat)-1]
	}
	sum := 0.0
	for _, v := range beyond {
		sum += v
	}
	return p50, pp, sum / float64(len(beyond))
}
