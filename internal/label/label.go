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

	"parapll/internal/graph"
)

// Entry is one 2-hop label: hub vertex and distance from the hub to the
// labeled vertex.
type Entry struct {
	Hub graph.Vertex
	D   graph.Dist
}

// MergeEntries is the QUERY minimum for array-of-structs label lists (the
// mutable dynamic lists, the directed in/out lists): the smallest
// a[i].D + b[j].D over common hubs of two strictly hub-increasing lists
// and the hub achieving it, (graph.Inf, -1) when they share none. The
// flat Index serves the same query from its struct-of-arrays runs through
// MergeRuns.
func MergeEntries(a, b []Entry) (graph.Dist, graph.Vertex) {
	best, hub := graph.Inf, graph.Vertex(-1)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Hub < b[j].Hub:
			i++
		case a[i].Hub > b[j].Hub:
			j++
		default:
			if d := graph.AddDist(a[i].D, b[j].D); d < best {
				best, hub = d, a[i].Hub
			}
			i++
			j++
		}
	}
	return best, hub
}

// slab is an immutable snapshot of one vertex's label list. The backing
// array is shared across snapshots: an append writes the next array slot
// (never touched by any published snapshot) and publishes a longer header.
type slab struct {
	entries []Entry
}

// Store is the concurrent label set used during index construction.
//
// Concurrency contract: any number of goroutines may call Snapshot/Len
// concurrently with appends; Append on the *same* vertex serializes on a
// per-vertex mutex. Readers never block writers and vice versa.
type Store struct {
	labels []atomic.Pointer[slab]
	mu     []sync.Mutex
	total  atomic.Int64
}

// NewStore returns an empty store for vertices [0,n).
func NewStore(n int) *Store {
	s := &Store{
		labels: make([]atomic.Pointer[slab], n),
		mu:     make([]sync.Mutex, n),
	}
	empty := &slab{}
	for i := range s.labels {
		s.labels[i].Store(empty)
	}
	return s
}

// NumVertices returns the number of vertices the store covers.
func (s *Store) NumVertices() int { return len(s.labels) }

// Append adds entry (hub, d) to L(v). Entries are appended in arrival
// order; no sorting or deduplication happens here (the final Index pass
// does both).
func (s *Store) Append(v graph.Vertex, hub graph.Vertex, d graph.Dist) {
	s.mu[v].Lock()
	cur := s.labels[v].Load()
	old := cur.entries
	var next []Entry
	if cap(old) > len(old) {
		// The free slot is invisible to every published snapshot, so we
		// may write it in place and publish a longer header.
		next = old[:len(old)+1]
		next[len(old)] = Entry{Hub: hub, D: d}
	} else {
		next = make([]Entry, len(old)+1, 2*len(old)+4)
		copy(next, old)
		next[len(old)] = Entry{Hub: hub, D: d}
	}
	s.labels[v].Store(&slab{entries: next})
	s.mu[v].Unlock()
	s.total.Add(1)
}

// Snapshot returns the current label list of v. The result is immutable:
// concurrent appends publish longer snapshots without disturbing this one.
func (s *Store) Snapshot(v graph.Vertex) []Entry {
	return s.labels[v].Load().entries
}

// Len returns the current number of entries in L(v).
func (s *Store) Len(v graph.Vertex) int {
	return len(s.labels[v].Load().entries)
}

// TotalEntries returns the total number of entries across all vertices.
func (s *Store) TotalEntries() int64 { return s.total.Load() }

// BulkAppend adds several entries to L(v) under a single lock acquisition.
// Used when merging synchronized labels from other cluster nodes.
func (s *Store) BulkAppend(v graph.Vertex, entries []Entry) {
	if len(entries) == 0 {
		return
	}
	s.mu[v].Lock()
	cur := s.labels[v].Load()
	old := cur.entries
	var next []Entry
	if cap(old) >= len(old)+len(entries) {
		next = old[:len(old)+len(entries)]
		copy(next[len(old):], entries)
	} else {
		next = make([]Entry, len(old)+len(entries), 2*(len(old)+len(entries)))
		copy(next, old)
		copy(next[len(old):], entries)
	}
	s.labels[v].Store(&slab{entries: next})
	s.mu[v].Unlock()
	s.total.Add(int64(len(entries)))
}
