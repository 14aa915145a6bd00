// Package vheap provides the priority queue used by every Dijkstra variant
// in this repository (the paper's Algorithm 1 stores frontier vertices in a
// priority queue; enqueue/dequeue cost the O(log n) factor in its complexity
// analysis).
//
// Radix is a monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
// 1990). Distances are integers and every search here pops in
// non-decreasing order, so a push costs one append and a pop amortizes to
// O(log C) for a largest distance C, with no per-vertex state and no
// comparisons between queued items. It has no decrease-key: a caller pushes
// a vertex again when its distance improves and skips the popped item
// whose distance is no longer the vertex's. An indexed 4-ary heap and a
// lazy binary heap were measured against it (DESIGN.md, "Heap").
package vheap

import (
	"fmt"
	"math/bits"

	"parapll/internal/graph"
)

// Radix is a monotone min-heap of (vertex, distance) items. Item (v, d)
// sits in bucket bits.Len32(d ^ last), where last is the minimum most
// recently returned by Pop or Peek: bucket 0 holds keys equal to last, and
// bucket i keys that first differ from last at bit i-1, so every key in a
// lower bucket is smaller than every key in a higher one. A push below last
// panics. The zero value is an empty heap.
type Radix struct {
	b    [33][]item
	last graph.Dist
	n    int
}

type item struct {
	d graph.Dist
	v graph.Vertex
}

// Len returns the number of queued items.
func (h *Radix) Len() int { return h.n }

// Push queues v with priority d. A vertex may be queued more than once.
func (h *Radix) Push(v graph.Vertex, d graph.Dist) {
	if d < h.last {
		panic(fmt.Sprintf("vheap: push of key %d below the last popped key %d", d, h.last))
	}
	k := bits.Len32(d ^ h.last)
	h.b[k] = append(h.b[k], item{d, v})
	h.n++
}

// Peek returns an item of minimum priority without removing it, and raises
// the floor for later pushes to that priority. It panics on an empty heap.
func (h *Radix) Peek() (graph.Vertex, graph.Dist) {
	if len(h.b[0]) == 0 {
		h.refill()
	}
	it := h.b[0][len(h.b[0])-1]
	return it.v, it.d
}

// Pop removes and returns an item of minimum priority. It panics on an
// empty heap.
func (h *Radix) Pop() (graph.Vertex, graph.Dist) {
	if len(h.b[0]) == 0 {
		h.refill()
	}
	b := h.b[0]
	it := b[len(b)-1]
	h.b[0] = b[:len(b)-1]
	h.n--
	return it.v, it.d
}

// Reset empties the heap, keeping its buckets' storage, so it can take a
// new search from any key.
func (h *Radix) Reset() {
	for i := range h.b {
		h.b[i] = h.b[i][:0]
	}
	h.last, h.n = 0, 0
}

// refill makes the lowest non-empty bucket's minimum the new last and
// redistributes that bucket, whose items all land lower, bucket 0 among
// them.
func (h *Radix) refill() {
	if h.n == 0 {
		panic("vheap: Pop or Peek on an empty heap")
	}
	i := 1
	for len(h.b[i]) == 0 {
		i++
	}
	src := h.b[i]
	m := src[0].d
	for _, it := range src[1:] {
		m = min(m, it.d)
	}
	h.last = m
	for _, it := range src {
		k := bits.Len32(it.d ^ m)
		h.b[k] = append(h.b[k], it)
	}
	h.b[i] = src[:0]
}
