package graph

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// batchChunkAlign is the chunk-boundary granularity of PlanChunks:
// 16 Dist values fill one 64-byte cache line, so chunks that start on
// multiples of 16 never let two workers store into the same line of a
// result slice they fill by position (no false sharing on adjacent
// result indices).
const batchChunkAlign = 16

// batchChunksPerThread is the load-balance target: enough chunks per
// worker that one slow chunk (a vertex with a huge label list) is
// absorbed by the others pulling ahead, few enough that the atomic
// claim counter stays cold.
const batchChunksPerThread = 4

// BatchQuery fans a batch of (s,t) pairs out over `threads` goroutines
// (<= 0 means GOMAXPROCS), calling query for each pair. It is the
// shared engine behind the QueryBatch of every index type without a
// batch kernel of its own: the query function must be safe for
// concurrent use (all finalized indexes are; mutable ones must not be
// modified while a batch runs).
func BatchQuery(query func(s, t Vertex) Dist, pairs [][2]Vertex, threads int) []Dist {
	return BatchQueryChunks(len(pairs), threads, func(out []Dist, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = query(pairs[i][0], pairs[i][1])
		}
	})
}

// BatchQueryChunks is the chunked core of BatchQuery for callers that
// want to amortize per-pair overhead (scratch reuse, snapshot pinning)
// across a whole chunk: run must fill out[lo:hi] and may keep state
// alive until it returns. Chunking and panic behaviour are Chunks.Run's.
func BatchQueryChunks(n, threads int, run func(out []Dist, lo, hi int)) []Dist {
	out := make([]Dist, n)
	PlanChunks(n, threads).Run(func(lo, hi int) { run(out, lo, hi) })
	return out
}

// Chunks is a plan for running n independent items as [lo,hi) ranges on
// a few goroutines. Range boundaries are multiples of batchChunkAlign,
// and there are batchChunksPerThread ranges per worker for load balance.
type Chunks struct {
	n, size, count, workers int
}

// PlanChunks cuts n items into chunks for at most `threads` workers
// (<= 0 means GOMAXPROCS). A batch of one chunk gets one worker, which
// Run takes to mean the calling goroutine.
func PlanChunks(n, threads int) Chunks {
	if n <= 0 {
		return Chunks{}
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	size := (n + threads*batchChunksPerThread - 1) / (threads * batchChunksPerThread)
	size = (size + batchChunkAlign - 1) / batchChunkAlign * batchChunkAlign
	count := (n + size - 1) / size
	return Chunks{n: n, size: size, count: count, workers: min(threads, count)}
}

// Inline reports whether Run would call run(0, n) on the calling
// goroutine and nothing else. A caller that checks it first and makes
// that one call itself never builds the closure Run needs, which is what
// keeps a small batch at one allocation (its result).
func (c Chunks) Inline() bool { return c.workers == 1 }

// chunkRun is the state the workers of one Run share.
type chunkRun struct {
	next   atomic.Int64 // next unclaimed chunk
	failed atomic.Bool  // a worker panicked: claim no more chunks
	wg     sync.WaitGroup
	panic  any // the first worker panic, written by whoever set failed
}

// Run calls run for every chunk of the plan and returns when all have
// finished. Chunks are claimed from a shared atomic counter — dynamic
// load balancing, like the paper's dynamic root assignment.
//
// A panic in run reaches Run's caller, whichever goroutine it happened
// on: a worker recovers it, the others stop claiming chunks, and Run
// re-panics with the first value once every worker has returned. (A bare
// goroutine's panic would end the process before any recover up the
// caller's stack — the server's per-request barrier — could see it.) The
// worker's stack is gone by then; the value is what callers match on.
// Workers take the caller's debug.SetPanicOnFault setting, so a memory
// fault in one is a panic exactly when it would be on the caller.
func (c Chunks) Run(run func(lo, hi int)) {
	switch c.workers {
	case 0:
		return
	case 1:
		run(0, c.n) // small batch: skip the goroutine round-trip
		return
	}
	st := new(chunkRun)
	onFault := debug.SetPanicOnFault(false)
	debug.SetPanicOnFault(onFault)
	worker := func() {
		defer st.wg.Done()
		debug.SetPanicOnFault(onFault)
		defer func() {
			if p := recover(); p != nil && st.failed.CompareAndSwap(false, true) {
				st.panic = p // published to Run by wg.Wait
			}
		}()
		for !st.failed.Load() {
			k := int(st.next.Add(1)) - 1
			if k >= c.count {
				return
			}
			run(k*c.size, min(k*c.size+c.size, c.n))
		}
	}
	st.wg.Add(c.workers)
	for w := 0; w < c.workers; w++ {
		go worker()
	}
	st.wg.Wait()
	if st.panic != nil {
		panic(st.panic)
	}
}
