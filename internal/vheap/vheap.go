// Package vheap provides the priority queue used by every Dijkstra variant
// in this repository (the paper's Algorithm 1 stores frontier vertices in a
// priority queue; enqueue/dequeue cost the O(log n) factor in its complexity
// analysis).
//
// Indexed is a 4-ary min-heap with DecreaseKey, one slot per vertex. 4-ary
// beats binary for Dijkstra because sift-down dominates and a wider node
// halves the tree height at the cost of three extra comparisons that stay
// in one cache line. A lazy-deletion binary heap (duplicate pushes, stale
// entries skipped on pop) was measured against it inside the pruned
// Dijkstra and never won, so it is not kept (DESIGN.md, "Heap").
package vheap

import "parapll/internal/graph"

// Indexed is a 4-ary min-heap keyed by distance with O(log n) DecreaseKey.
// It holds at most one entry per vertex. The zero value is not usable; call
// NewIndexed.
type Indexed struct {
	heap []graph.Vertex // heap[i] = vertex at heap position i
	pos  []int32        // pos[v] = position of v in heap, or -1
	key  []graph.Dist   // key[v] = current priority of v
}

// NewIndexed returns an empty indexed heap able to hold vertices in [0,n).
func NewIndexed(n int) *Indexed {
	h := &Indexed{
		heap: make([]graph.Vertex, 0, 64),
		pos:  make([]int32, n),
		key:  make([]graph.Dist, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of queued vertices.
func (h *Indexed) Len() int { return len(h.heap) }

// Contains reports whether v is currently queued.
func (h *Indexed) Contains(v graph.Vertex) bool { return h.pos[v] >= 0 }

// Key returns the current priority of a queued vertex v. The result is
// unspecified if v is not queued.
func (h *Indexed) Key(v graph.Vertex) graph.Dist { return h.key[v] }

// Push inserts v with priority d, or decreases v's priority to d if v is
// already queued with a larger priority. Pushing a queued vertex with a
// priority >= its current one is a no-op. It returns whether the heap
// changed.
func (h *Indexed) Push(v graph.Vertex, d graph.Dist) bool {
	if p := h.pos[v]; p >= 0 {
		if d >= h.key[v] {
			return false
		}
		h.key[v] = d
		h.siftUp(int(p))
		return true
	}
	h.key[v] = d
	h.pos[v] = int32(len(h.heap))
	h.heap = append(h.heap, v)
	h.siftUp(len(h.heap) - 1)
	return true
}

// Peek returns the vertex with the minimum priority without removing it.
// It panics on an empty heap.
func (h *Indexed) Peek() (graph.Vertex, graph.Dist) {
	v := h.heap[0]
	return v, h.key[v]
}

// Pop removes and returns the vertex with the minimum priority. It panics
// on an empty heap.
func (h *Indexed) Pop() (graph.Vertex, graph.Dist) {
	v := h.heap[0]
	d := h.key[v]
	last := len(h.heap) - 1
	h.pos[v] = -1
	if last > 0 {
		moved := h.heap[last]
		h.heap[0] = moved
		h.pos[moved] = 0
	}
	h.heap = h.heap[:last]
	if last > 1 {
		h.siftDown(0)
	}
	return v, d
}

// Reset empties the heap so it can be reused without reallocating. It runs
// in time proportional to the current size, not n.
func (h *Indexed) Reset() {
	for _, v := range h.heap {
		h.pos[v] = -1
	}
	h.heap = h.heap[:0]
}

func (h *Indexed) less(i, j int) bool {
	return h.key[h.heap[i]] < h.key[h.heap[j]]
}

func (h *Indexed) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *Indexed) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Indexed) siftDown(i int) {
	n := len(h.heap)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h.less(c, best) {
				best = c
			}
		}
		if !h.less(best, i) {
			return
		}
		h.swap(i, best)
		i = best
	}
}
