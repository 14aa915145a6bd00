package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestCDF(t *testing.T) {
	got := CDF([]int64{1, 1, 2})
	want := []float64{0.25, 0.5, 1.0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CDF = %v, want %v", got, want)
	}
}

func TestCDFZeroTotal(t *testing.T) {
	got := CDF([]int64{0, 0})
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("zero-total CDF = %v", got)
	}
	if len(CDF(nil)) != 0 {
		t.Fatal("nil CDF should be empty")
	}
}

func TestCDFProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		xs := make([]int64, len(raw))
		for i, r := range raw {
			xs[i] = int64(r)
		}
		cdf := CDF(xs)
		prev := 0.0
		for _, c := range cdf {
			if c < prev || c > 1+1e-12 {
				return false // must be monotone in [0,1]
			}
			prev = c
		}
		var total int64
		for _, x := range xs {
			total += x
		}
		if total > 0 && math.Abs(cdf[len(cdf)-1]-1) > 1e-12 {
			return false // must end at exactly 1
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Stddev-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", s.Stddev)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Fatal("empty summary wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if p := Percentile(xs, 50); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 99); p != 5 {
		t.Fatalf("p99 = %v", p)
	}
	// Input must not be reordered.
	if !reflect.DeepEqual(xs, []float64{5, 1, 3, 2, 4}) {
		t.Fatal("Percentile mutated input")
	}
}

func TestPercentilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile(nil, 50)
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(10*time.Second, 2*time.Second); s != 5 {
		t.Fatalf("speedup = %v", s)
	}
	if s := Speedup(time.Second, 0); !math.IsInf(s, 1) {
		t.Fatalf("zero-time speedup = %v", s)
	}
}

func TestFormatDuration(t *testing.T) {
	if s := FormatDuration(1234 * time.Millisecond); s != "1.23" {
		t.Fatalf("format = %q", s)
	}
}
