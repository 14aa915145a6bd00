// Package dynamic maintains a PLL index under edge insertions without
// rebuilding — the incremental-update extension of the pruned-landmark
// framework (after Akiba, Iwata & Yoshida, WWW 2014), natural future
// work for ParaPLL: a social network or AS topology keeps growing while
// the query service stays online.
//
// Inserting edge {u,v} can only shorten distances, and every shortened
// pair gains a shortest path through the new edge. It therefore
// suffices to resume a pruned Dijkstra from every hub h ∈ L(u), seeded
// at v with distance d(h,u)+w (and symmetrically from hubs of L(v)
// seeded at u): each resumed search adds or tightens exactly the labels
// the insertion invalidated. Old entries may become overestimates of
// the new distances, but the QUERY minimum ignores them because the
// resumed searches install the new exact covers (the same argument as
// the paper's Proposition 1 — stale labels are merely redundant).
//
// Deletions are not supported; they invalidate labels downward, which
// the 2-hop framework cannot repair locally.
package dynamic

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// Sentinel errors classifying InsertEdge failures, so callers fronting
// untrusted input (the HTTP /update endpoint, WAL replay) can map them
// to the right response without string matching.
var (
	// ErrInvalid marks a structurally invalid insert: a self loop, an
	// endpoint outside [0,n), or a weight outside (0, Inf). Zero weights
	// are rejected alongside Inf because the durable update log frames
	// weights as strictly positive — an edge of length 0 would make its
	// endpoints metrically indistinguishable and cannot round-trip
	// through the WAL.
	ErrInvalid = errors.New("invalid edge insert")
	// ErrBatchInFlight means the insert raced a QueryBatch (see the
	// Index concurrency contract); the caller should drain batches and
	// retry.
	ErrBatchInFlight = errors.New("QueryBatch in flight")
)

// adjRow is one vertex's adjacency in the (neighbors, weights) shape
// graph.Graph.Neighbors returns, so the search kernel relaxes base and
// inserted edges in one loop.
type adjRow struct {
	ns []graph.Vertex
	ws []graph.Dist
}

// Index is a mutable 2-hop index over a growing graph.
//
// Concurrency contract: queries (Query, QueryWithHub, QueryBatch) only
// read the label lists and never touch the insertion scratch below, so
// any number may run concurrently with each other — but none may
// overlap an InsertEdge, which rewrites the lists in place. The
// batches counter makes the batch half of that contract enforceable:
// InsertEdge refuses to run while a QueryBatch is in flight. The check
// is a best-effort tripwire for a contract violation, not a
// synchronization mechanism — a racing insert that slips past it is
// still a data race.
type Index struct {
	base *graph.Graph
	// grown[v] is v's base row followed by its inserted edges; it stays
	// empty, and the base row current, until v's first insertion.
	grown []adjRow
	lists [][]label.Entry // hub-sorted label lists
	// Scratch for resumed searches — owned by InsertEdge only; queries
	// must never read or write it.
	ps *pll.Searcher

	batches atomic.Int32 // in-flight QueryBatch calls
}

// Build constructs the mutable index from an initial graph with the
// serial weighted PLL (opt as in pll.Build).
func Build(g *graph.Graph, opt pll.Options) *Index {
	return FromIndex(g, pll.Build(g, opt))
}

// FromIndex wraps an already-built finalized index over g as a mutable
// dynamic index — the seam the living-graph pipeline uses to resume
// from a compacted checkpoint artifact instead of paying a full PLL
// build on every restart. The label lists are deep-copied (idx may be
// mmap-backed and owned by a finalizer; the dynamic index must own
// heap memory it can rewrite in place), so idx is free to be closed or
// collected afterwards. Panics if idx does not cover exactly g's
// vertices — pairing an artifact with the wrong graph is a programming
// error no insert could ever repair.
func FromIndex(g *graph.Graph, idx *label.Index) *Index {
	defer runtime.KeepAlive(idx)
	n := g.NumVertices()
	if idx.NumVertices() != n {
		panic(fmt.Sprintf("dynamic: index covers %d vertices, graph has %d", idx.NumVertices(), n))
	}
	x := &Index{
		base:  g,
		grown: make([]adjRow, n),
		lists: make([][]label.Entry, n),
		ps:    pll.NewSearcher(n, false),
	}
	var hubs []graph.Vertex
	var dists []graph.Dist
	for v := 0; v < n; v++ {
		hubs, dists = idx.Label(graph.Vertex(v), hubs, dists)
		row := make([]label.Entry, len(hubs))
		for i := range hubs {
			row[i] = label.Entry{Hub: hubs[i], D: dists[i]}
		}
		x.lists[v] = row
	}
	return x
}

// ToIndex snapshots the current label lists into a finalized immutable
// label.Index — the incremental-fold path of compaction, which reuses
// the repaired lists instead of rebuilding from scratch. The result is
// exact for queries (the lists may carry stale overestimate entries
// for pairs already covered by a better hub; the QUERY minimum ignores
// them, per the paper's Proposition 1). The caller must hold the same
// exclusive access an InsertEdge needs: ToIndex reads every list, and
// a concurrent insert rewrites them in place.
func (x *Index) ToIndex() *label.Index {
	return label.NewIndexFromLists(x.lists)
}

// NumVertices returns the number of vertices (fixed at Build time).
func (x *Index) NumVertices() int { return x.base.NumVertices() }

// NumEntries returns the current number of label entries.
func (x *Index) NumEntries() int64 {
	var total int64
	for _, l := range x.lists {
		total += int64(len(l))
	}
	return total
}

// neighbors returns v's current adjacency (base graph + insertions).
func (x *Index) neighbors(v graph.Vertex) ([]graph.Vertex, []graph.Dist) {
	if r := x.grown[v]; r.ns != nil {
		return r.ns, r.ws
	}
	return x.base.Neighbors(v)
}

// Query returns the exact current distance between s and t.
func (x *Index) Query(s, t graph.Vertex) graph.Dist {
	d, _ := x.QueryWithHub(s, t)
	return d
}

// QueryWithHub is Query but also reports the meeting hub achieving the
// minimum; hub is -1 for disconnected pairs, and (0, s) is returned
// for s == t.
func (x *Index) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	if s == t {
		return 0, s
	}
	return label.MergeEntries(x.lists[s], x.lists[t])
}

// QueryBatch answers many (s,t) pairs in parallel (threads <= 0 means
// GOMAXPROCS). Queries only read the label lists, so a batch is safe as
// long as no InsertEdge runs concurrently — the same single-writer
// contract as Query itself, and the one InsertEdge enforces via the
// in-flight counter.
func (x *Index) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	x.batches.Add(1)
	defer x.batches.Add(-1)
	return graph.BatchQuery(x.Query, pairs, threads)
}

// CheckInsert validates the edge {u,v,w} against the structural rules
// InsertEdge enforces, without mutating anything. Errors wrap
// ErrInvalid. The living-graph pipeline calls this before logging the
// update durably, so a record that reaches the WAL is always one the
// index will accept on apply and on crash replay.
func (x *Index) CheckInsert(u, v graph.Vertex, w graph.Dist) error {
	n := x.NumVertices()
	if u == v {
		return fmt.Errorf("dynamic: self loop {%d,%d}: %w", u, v, ErrInvalid)
	}
	if int(u) < 0 || int(u) >= n || int(v) < 0 || int(v) >= n {
		return fmt.Errorf("dynamic: edge {%d,%d} out of range [0,%d): %w", u, v, n, ErrInvalid)
	}
	if w == 0 || w == graph.Inf {
		return fmt.Errorf("dynamic: weight %d outside (0, Inf): %w", w, ErrInvalid)
	}
	return nil
}

// InsertEdge adds the undirected edge {u,v} with weight w and repairs
// the index. Inserting a parallel edge no lighter than an existing one
// is a no-op for distances but still recorded in the overlay. Self
// loops, out-of-range endpoints and weights outside (0, Inf) are
// rejected (ErrInvalid), as is an insert while a QueryBatch is in
// flight (ErrBatchInFlight; see the Index concurrency contract).
func (x *Index) InsertEdge(u, v graph.Vertex, w graph.Dist) error {
	if x.batches.Load() != 0 {
		return fmt.Errorf("dynamic: InsertEdge while a QueryBatch is in flight (queries read the label lists the insert mutates; drain batches first): %w", ErrBatchInFlight)
	}
	if err := x.CheckInsert(u, v, w); err != nil {
		return err
	}
	x.addHalfEdge(u, v, w)
	x.addHalfEdge(v, u, w)
	x.resume(u, v, w)
	x.resume(v, u, w)
	return nil
}

func (x *Index) addHalfEdge(from, to graph.Vertex, w graph.Dist) {
	r := &x.grown[from]
	if r.ns == nil {
		// First insertion at from: copy the base row out of the graph's
		// shared CSR storage before appending to it.
		ns, ws := x.base.Neighbors(from)
		r.ns, r.ws = slices.Clone(ns), slices.Clone(ws)
	}
	r.ns, r.ws = append(r.ns, to), append(r.ws, w)
}

// resume continues, for every hub h of L(endpoint), h's pruned Dijkstra
// across the new edge: the frontier reopens at seed (the edge's other
// end) with tentative distance d(h,endpoint)+w, a real path length, and
// the search installs or tightens exactly the labels the insertion
// invalidated.
func (x *Index) resume(endpoint, seed graph.Vertex, w graph.Dist) {
	// Clone: resumed searches rewrite x.lists[endpoint].
	for _, e := range slices.Clone(x.lists[endpoint]) {
		d0 := graph.AddDist(e.D, w)
		if d0 == graph.Inf {
			continue
		}
		// Fast reject: if the seed's pair with h is already covered this
		// tightly, nothing downstream can improve either.
		if pos, ok := x.entryFor(seed, e.Hub); ok && x.lists[seed][pos].D <= d0 {
			continue
		}
		x.ps.Run(pll.Seed{Hub: e.Hub, Start: seed, D0: d0}, x.lists[e.Hub], x.neighbors, x.list, x.install)
	}
}

func (x *Index) list(v graph.Vertex) []label.Entry { return x.lists[v] }

// entryFor returns the position of hub h in v's sorted list, or the
// insertion point with found=false.
func (x *Index) entryFor(v, h graph.Vertex) (pos int, found bool) {
	l := x.lists[v]
	pos = sort.Search(len(l), func(i int) bool { return l[i].Hub >= h })
	return pos, pos < len(l) && l[pos].Hub == h
}

// install is the settle hook of a resumed search: add the label e at u,
// or tighten u's existing entry for the same hub.
func (x *Index) install(u, _ graph.Vertex, e label.Entry) {
	if pos, found := x.entryFor(u, e.Hub); found {
		x.lists[u][pos].D = e.D
	} else {
		x.lists[u] = slices.Insert(x.lists[u], pos, e)
	}
}
