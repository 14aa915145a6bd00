// Package stats provides the small numeric helpers the experiment harness
// uses to turn raw measurements into the paper's tables and figures:
// cumulative distributions (Figure 6), summaries and percentiles (query
// latency), and speedup computation (Tables 3–5).
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// CDF returns, for the cumulative sums of xs, the fraction of the total
// accumulated by each prefix: out[i] = sum(xs[:i+1]) / sum(xs). It is the
// transform behind Figure 6 ("cumulative distribution of the number of
// vertices in x-th Pruned Dijkstra"). A zero-total input yields all zeros.
func CDF(xs []int64) []float64 {
	out := make([]float64, len(xs))
	var total int64
	for _, x := range xs {
		total += x
	}
	if total == 0 {
		return out
	}
	var run int64
	for i, x := range xs {
		run += x
		out[i] = float64(run) / float64(total)
	}
	return out
}

// Summary describes a sample of float64 observations.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	Max    float64
	Stddev float64
}

// Summarize computes a Summary. An empty sample returns the zero Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.Stddev = math.Sqrt(sq / float64(s.N))
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// nearest-rank on a sorted copy. It panics on an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty sample")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[rank-1]
}

// Speedup returns base/x as the paper's SP columns define it (time of the
// reference configuration divided by time of the measured one). A zero
// measurement returns +Inf.
func Speedup(base, x time.Duration) float64 {
	if x == 0 {
		return math.Inf(1)
	}
	return float64(base) / float64(x)
}

// FormatDuration renders d the way the paper prints indexing times:
// seconds with two decimals.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}
