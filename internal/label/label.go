// Package label implements the 2-hop-cover distance labels at the heart of
// PLL and ParaPLL: a concurrent Store used while indexing (lock-free reads,
// per-vertex mutex-guarded appends — the "semaphore" of the paper's
// Algorithm 2) and an immutable, query-optimized Index produced when
// indexing finishes.
//
// A label entry (h, d) in L(v) asserts dist(h, v) = d for hub vertex h
// (subject to the parallel-construction caveat that redundant entries may
// record an overestimate for pairs already covered by a better hub; the
// QUERY minimum makes those harmless, per the paper's Proposition 1).
package label

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"parapll/internal/graph"
)

// Entry is one 2-hop label: hub vertex and distance from the hub to the
// labeled vertex.
type Entry struct {
	Hub graph.Vertex
	D   graph.Dist
}

// list is one vertex's label list: the append mutex, the published
// length and the backing array side by side, so a prune query's
// Snapshot touches one cache line before the entries themselves.
//
// Publication order. A writer (holding mu) fills slots past n — slots no
// reader can see yet — and only then stores the longer n; when the array
// is full it first copies the entries into a larger one and stores arr,
// then stores n. Arrays are only ever replaced by longer ones carrying
// the same prefix, and entries below a published n never change. A
// reader therefore loads n first and arr second: whichever array it
// then sees was published no earlier than the one n was published
// against, so it holds at least n final entries. (Loading arr first
// could pair an outgrown array with a newer, longer n.)
type list struct {
	mu  sync.Mutex
	n   atomic.Int64          // published length
	arr atomic.Pointer[Entry] // first slot of the backing array
	cap int                   // slots in the backing array; guarded by mu
}

// reserve returns the backing array, first replaced by one of newCap
// slots if it cannot take extra more entries after the n it holds. The
// caller holds mu.
func (l *list) reserve(n, extra, newCap int) []Entry {
	old := unsafe.Slice(l.arr.Load(), l.cap)
	if n+extra <= l.cap {
		return old
	}
	next := make([]Entry, newCap)
	copy(next, old[:n])
	l.arr.Store(unsafe.SliceData(next))
	l.cap = len(next)
	return next
}

// Store is the concurrent label set used during index construction.
//
// Concurrency contract: any number of goroutines may call Snapshot/Len
// concurrently with appends; Append on the *same* vertex serializes on a
// per-vertex mutex. Readers never block writers and vice versa.
type Store struct {
	lists []list
}

// NewStore returns an empty store for vertices [0,n).
func NewStore(n int) *Store { return &Store{lists: make([]list, n)} }

// NumVertices returns the number of vertices the store covers.
func (s *Store) NumVertices() int { return len(s.lists) }

// Append adds entry (hub, d) to L(v). Entries are appended in arrival
// order; no sorting or deduplication happens here (the final Index pass
// does both). It allocates only when L(v)'s backing array is full.
func (s *Store) Append(v graph.Vertex, hub graph.Vertex, d graph.Dist) {
	l := &s.lists[v]
	l.mu.Lock()
	n := int(l.n.Load())
	l.reserve(n, 1, 2*n+4)[n] = Entry{Hub: hub, D: d}
	l.n.Store(int64(n + 1))
	l.mu.Unlock()
}

// Snapshot returns the current label list of v. The result is immutable:
// concurrent appends publish longer snapshots without disturbing this one.
func (s *Store) Snapshot(v graph.Vertex) []Entry {
	l := &s.lists[v]
	n := l.n.Load() // before arr: see list
	return unsafe.Slice(l.arr.Load(), n)
}

// Len returns the current number of entries in L(v).
func (s *Store) Len(v graph.Vertex) int { return int(s.lists[v].n.Load()) }

// TotalEntries returns the total number of entries across all vertices,
// summed from the per-vertex lengths (appends share no counter).
func (s *Store) TotalEntries() int64 {
	var total int64
	for v := range s.lists {
		total += s.lists[v].n.Load()
	}
	return total
}

// BulkAppend adds several entries to L(v) under a single lock acquisition.
// Used when merging synchronized labels from other cluster nodes.
func (s *Store) BulkAppend(v graph.Vertex, entries []Entry) {
	if len(entries) == 0 {
		return
	}
	l := &s.lists[v]
	l.mu.Lock()
	n := int(l.n.Load())
	copy(l.reserve(n, len(entries), 2*(n+len(entries)))[n:], entries)
	l.n.Store(int64(n + len(entries)))
	l.mu.Unlock()
}
