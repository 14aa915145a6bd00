// Package task implements the paper's "task manager" (§3.2, §4.2–4.4): the
// component that hands root vertices of Pruned Dijkstra searches to worker
// threads, controlling the computing sequence.
//
// Two assignment policies are provided, matching the paper:
//
//   - Static (Figure 2): the ordered vertex list is dealt round-robin to p
//     workers before indexing starts; worker w processes order[w],
//     order[w+p], order[w+2p], …
//   - Dynamic (Figure 3, Algorithm 2): workers compete for the
//     highest-degree unindexed vertex; a free worker fetches the next
//     vertex from a shared queue (here a single atomic cursor — the
//     queue's lock/unlock in Algorithm 2 collapses to one fetch-and-add).
package task

import (
	"sync/atomic"

	"parapll/internal/graph"
)

// Manager hands out indexing tasks (root vertices) to workers. Next is
// safe for concurrent use by distinct workers; the same worker id must not
// call Next concurrently with itself.
type Manager interface {
	// Next returns the next root assigned to worker w, together with the
	// root's position in the global computing sequence, or ok=false when
	// worker w has no more tasks.
	Next(w int) (v graph.Vertex, pos int, ok bool)
	// Workers returns the number of workers the manager was built for.
	Workers() int
}

// NextBatch claims up to max consecutive tasks for worker w, filling
// roots and poss (each at least max long) and returning how many were
// claimed; 0 means worker w is done. Batch-oriented engines use this to
// turn the per-root manager protocol into root batches without the
// managers having to know about batching: under Static the batch is the
// worker's next stride of the dealt sequence, under Dynamic it is the
// next run of claims off the shared cursor. Roots arrive in the same
// global-sequence order Next would have produced for this worker.
func NextBatch(m Manager, w, max int, roots []graph.Vertex, poss []int) int {
	k := 0
	for k < max {
		v, pos, ok := m.Next(w)
		if !ok {
			break
		}
		roots[k], poss[k] = v, pos
		k++
	}
	return k
}

// Static deals the sequence round-robin before indexing (paper Figure 2).
type Static struct {
	order   []graph.Vertex
	workers int
	cursor  []int64 // cursor[w]: next sequence position for worker w
}

// NewStatic builds a static manager over the given computing sequence.
func NewStatic(order []graph.Vertex, workers int) *Static {
	if workers < 1 {
		panic("task: workers must be >= 1")
	}
	s := &Static{order: order, workers: workers, cursor: make([]int64, workers)}
	for w := range s.cursor {
		s.cursor[w] = int64(w)
	}
	return s
}

// Next implements Manager.
func (s *Static) Next(w int) (graph.Vertex, int, bool) {
	pos := s.cursor[w]
	if pos >= int64(len(s.order)) {
		return 0, 0, false
	}
	s.cursor[w] = pos + int64(s.workers)
	return s.order[pos], int(pos), true
}

// Workers implements Manager.
func (s *Static) Workers() int { return s.workers }

// Dynamic lets all workers compete for the next unindexed vertex in
// sequence order (paper Figure 3 / Algorithm 2).
type Dynamic struct {
	order   []graph.Vertex
	workers int
	next    atomic.Int64
}

// NewDynamic builds a dynamic manager: each Next claims the next root.
func NewDynamic(order []graph.Vertex, workers int) *Dynamic {
	if workers < 1 {
		panic("task: workers must be >= 1")
	}
	return &Dynamic{order: order, workers: workers}
}

// Next implements Manager.
func (d *Dynamic) Next(int) (graph.Vertex, int, bool) {
	pos := d.next.Add(1) - 1
	if pos >= int64(len(d.order)) {
		return 0, 0, false
	}
	return d.order[pos], int(pos), true
}

// Workers implements Manager.
func (d *Dynamic) Workers() int { return d.workers }
