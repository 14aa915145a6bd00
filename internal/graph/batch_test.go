package graph

import (
	"sync/atomic"
	"testing"
)

func TestBatchQueryChunksCoverage(t *testing.T) {
	// Every index must be filled exactly once, chunk starts must sit on
	// cache-line-aligned boundaries, and ranges must never overlap —
	// for sizes around the alignment and thread counts that do not
	// divide them.
	for _, n := range []int{0, 1, 15, 16, 17, 64, 1000, 4099} {
		for _, threads := range []int{1, 2, 3, 8, 0} {
			counts := make([]int32, n)
			out := BatchQueryChunks(n, threads, func(out []Dist, lo, hi int) {
				if lo%batchChunkAlign != 0 {
					t.Errorf("n=%d threads=%d: chunk start %d not aligned to %d", n, threads, lo, batchChunkAlign)
				}
				if hi > n || lo >= hi {
					t.Errorf("n=%d threads=%d: bad chunk [%d,%d)", n, threads, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
					out[i] = Dist(i)
				}
			})
			if len(out) != n {
				t.Fatalf("n=%d threads=%d: len(out) = %d", n, threads, len(out))
			}
			for i := range counts {
				if counts[i] != 1 {
					t.Fatalf("n=%d threads=%d: index %d filled %d times", n, threads, i, counts[i])
				}
				if out[i] != Dist(i) {
					t.Fatalf("n=%d threads=%d: out[%d] = %d", n, threads, i, out[i])
				}
			}
		}
	}
}

func TestBatchQueryChunksMinSize(t *testing.T) {
	// Small batches must not be shredded below one cache line per chunk:
	// with n <= batchChunkAlign there is exactly one chunk, run inline.
	calls := 0
	BatchQueryChunks(batchChunkAlign, 8, func(out []Dist, lo, hi int) {
		calls++
		if lo != 0 || hi != batchChunkAlign {
			t.Fatalf("chunk [%d,%d), want [0,%d)", lo, hi, batchChunkAlign)
		}
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestBatchQueryMatchesDirect(t *testing.T) {
	pairs := make([][2]Vertex, 777)
	for i := range pairs {
		pairs[i] = [2]Vertex{Vertex(i), Vertex(i * 3)}
	}
	query := func(s, t Vertex) Dist { return Dist(s) + Dist(t) }
	for _, threads := range []int{1, 4, 0} {
		got := BatchQuery(query, pairs, threads)
		for i, p := range pairs {
			if got[i] != query(p[0], p[1]) {
				t.Fatalf("threads=%d: out[%d] = %d, want %d", threads, i, got[i], query(p[0], p[1]))
			}
		}
	}
	if out := BatchQuery(query, nil, 4); len(out) != 0 {
		t.Fatal("empty batch returned results")
	}
}

func TestChunksRunPanicReachesCaller(t *testing.T) {
	// A panic on a worker goroutine must come out of Run on the calling
	// one (a bare goroutine's panic ends the process), the other workers
	// must stop claiming chunks, and Run must not return before they do.
	const n = 64 * batchChunkAlign
	plan := PlanChunks(n, 4)
	if plan.Inline() {
		t.Fatal("plan of 64 cache lines on 4 threads is inline")
	}
	var started, finished atomic.Int32
	func() {
		defer func() {
			if p := recover(); p != "chunk 0 failed" {
				t.Fatalf("recovered %v, want the worker's panic value", p)
			}
		}()
		plan.Run(func(lo, hi int) {
			started.Add(1)
			defer finished.Add(1)
			if lo == 0 {
				panic("chunk 0 failed")
			}
		})
		t.Fatal("Run returned normally")
	}()
	if started.Load() != finished.Load() {
		t.Fatalf("Run unwound with %d chunks started and %d finished", started.Load(), finished.Load())
	}
	if int(started.Load()) == plan.count {
		t.Logf("all %d chunks ran before the failure was seen (legal, but the stop flag went unexercised)", plan.count)
	}
	// The same through the exported batch engine, whose callers recover.
	pairs := make([][2]Vertex, n)
	pairs[n/2] = [2]Vertex{7, 0}
	defer func() {
		if p := recover(); p != "bad pair" {
			t.Fatalf("BatchQuery: recovered %v, want the query's panic value", p)
		}
	}()
	BatchQuery(func(s, _ Vertex) Dist {
		if s == 7 {
			panic("bad pair")
		}
		return 0
	}, pairs, 4)
	t.Fatal("BatchQuery returned normally")
}
