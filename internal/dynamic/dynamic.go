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
// L(v) is a base label, from an immutable label.Index (it may be a
// mapped file), merged with a delta run of the entries resumed searches
// installed at v — each below the base entry for its hub, as a search
// settles v only where the cover answers worse and L(h) holds (h, 0).
//
// Deletions are not supported; they invalidate labels downward, which
// the 2-hop framework cannot repair locally.
package dynamic

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// ErrInvalid marks a structurally invalid insert: a self loop, an
// endpoint outside [0,n), or a weight outside (0, Inf) (the WAL frames
// weights as positive: a 0 edge would merge its endpoints' distances).
var ErrInvalid = errors.New("invalid edge insert")

// adjRow is one vertex's adjacency in the (neighbors, weights) shape
// graph.Graph.Neighbors returns, so the search kernel relaxes base and
// inserted edges in one loop.
type adjRow struct {
	ns []graph.Vertex
	ws []graph.Dist
}

// run is one vertex's delta, hub-sorted; once published, never written.
type run struct {
	hubs  []graph.Vertex
	dists []graph.Dist
}

var noRun run // the run of every vertex no insert has reached

// Index is a mutable 2-hop index over a growing graph.
//
// Concurrency contract: queries take no lock and may run beside one
// InsertEdge; the caller serializes inserts. An insert copies each run
// it installs into once and stores the copies when it is done, so a
// racing query sees some runs before it and others after: every entry a
// real path length, a newer run no worse on any hub than the older one.
// Its answer lies between the distances after and before the insert,
// and no later query answers more.
//
// The Index owns its base: a holder that publishes it to lock-free
// readers has each take a reference (label.Acquire) and drop it with
// Release, and drops its own, taken at creation, when it stops
// publishing the Index. The last Release closes the base.
type Index struct {
	label.Refs

	g       *graph.Graph
	base    *label.Index
	delta   []atomic.Pointer[run] // published runs
	added   atomic.Int64          // delta entries
	shadows atomic.Int64          // of them, ones for a hub the base label holds

	// InsertEdge's own: grown[v] is v's row once an edge was inserted
	// there, own[v] the copy of v's run the insert writes.
	grown []adjRow
	own   []*run
	dirty []graph.Vertex // the vertices with an own run
	ps    *pll.Searcher
	ends  scratch       // L(endpoint), whose hubs resume reopens
	buf   []label.Entry // a run as the prune test reads it (entries)
}

// Build constructs the mutable index from an initial graph with the
// serial weighted PLL (opt as in pll.Build).
func Build(g *graph.Graph, opt pll.Options) *Index {
	return FromIndex(g, pll.Build(g, opt))
}

// FromIndex wraps a finalized index over g, which becomes the base,
// owned by the returned Index, and may be mmap-backed. Panics if idx
// does not cover exactly g's vertices: pairing an artifact with the
// wrong graph is a programming error.
func FromIndex(g *graph.Graph, idx *label.Index) *Index {
	n := g.NumVertices()
	if idx.NumVertices() != n {
		panic(fmt.Sprintf("dynamic: index covers %d vertices, graph has %d", idx.NumVertices(), n))
	}
	x := &Index{g: g, base: idx, delta: make([]atomic.Pointer[run], n),
		grown: make([]adjRow, n), own: make([]*run, n), ps: pll.NewSearcher(n)}
	for v := range x.delta {
		x.delta[v].Store(&noRun)
	}
	return x
}

// Freeze loads every run (under the exclusion that serializes inserts:
// the labels of whole ones) and returns them as the list function that
// label.NewIndexFunc and fileio.SaveLabels finalize over NumVertices()
// lists: the base with the runs merged in, beside later inserts. Stale
// overestimates stay, harmless per Proposition 1.
func (x *Index) Freeze() func(v int) []label.Entry {
	runs := make([]*run, len(x.delta))
	for v := range runs {
		runs[v] = x.delta[v].Load()
	}
	var s scratch
	return func(v int) []label.Entry { return s.union(x.base, graph.Vertex(v), runs[v]) }
}

// ToIndex finalizes the labels as they stand (see Freeze).
func (x *Index) ToIndex() *label.Index { return label.NewIndexFunc(len(x.delta), x.Freeze()) }

// scratch holds the buffers one label union is built in.
type scratch struct {
	hubs  []graph.Vertex
	dists []graph.Dist
	out   []label.Entry
}

// union returns L(v), base(v) with r merged in, hub-sorted in s.out.
func (s *scratch) union(base *label.Index, v graph.Vertex, r *run) []label.Entry {
	hubs, dists := base.Label(v, s.hubs, s.dists)
	rh, rd := r.hubs, r.dists
	out := slices.Grow(s.out[:0], len(hubs)+len(rh))
	for i, h := range hubs {
		for ; len(rh) > 0 && rh[0] < h; rh, rd = rh[1:], rd[1:] {
			out = append(out, label.Entry{Hub: rh[0], D: rd[0]})
		}
		d := dists[i]
		if len(rh) > 0 && rh[0] == h {
			d, rh, rd = rd[0], rh[1:], rd[1:]
		}
		out = append(out, label.Entry{Hub: h, D: d})
	}
	for i, h := range rh {
		out = append(out, label.Entry{Hub: h, D: rd[i]})
	}
	s.hubs, s.dists, s.out = hubs, dists, out
	return out
}

// NumVertices returns the number of vertices (fixed at Build time).
func (x *Index) NumVertices() int { return x.base.NumVertices() }

// NumEntries returns the current number of label entries.
func (x *Index) NumEntries() int64 { return x.base.NumEntries() + x.added.Load() - x.shadows.Load() }

// Release drops one reference to x; the last closes the base.
func (x *Index) Release() {
	if x.Refs.Release() {
		x.base.Close()
	}
}

// DeltaEntries returns the number of entries in the delta runs.
func (x *Index) DeltaEntries() int64 { return x.added.Load() }

// neighbors returns v's current adjacency (base graph + insertions).
func (x *Index) neighbors(v graph.Vertex) ([]graph.Vertex, []graph.Dist) {
	if r := x.grown[v]; r.ns != nil {
		return r.ns, r.ws
	}
	return x.g.Neighbors(v)
}

// Query returns the exact current distance between s and t.
func (x *Index) Query(s, t graph.Vertex) graph.Dist {
	d, _ := x.withDelta(s, t, x.base.Query(s, t), -1)
	return d
}

// QueryWithHub is Query plus the smallest meeting hub achieving it; hub
// is -1 for disconnected pairs, and (0, s) is returned for s == t.
func (x *Index) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	d, hub := x.base.QueryWithHub(s, t)
	return x.withDelta(s, t, d, hub)
}

// withDelta meets the base kernel's (d, hub) with the merge of the
// published runs a and b of s and t and each run against the other
// side's base label: one merge of the union labels, as a shadowed base
// entry loses to its run entry.
func (x *Index) withDelta(s, t graph.Vertex, d graph.Dist, hub graph.Vertex) (graph.Dist, graph.Vertex) {
	a, b := x.delta[s].Load(), x.delta[t].Load()
	if s == t || len(a.hubs)+len(b.hubs) == 0 {
		return d, hub
	}
	md, mh := label.MergeRuns(a.hubs, a.dists, b.hubs, b.dists)
	d, hub = meet(d, hub, md, mh)
	md, mh = x.base.MergeRun(t, a.hubs, a.dists)
	d, hub = meet(d, hub, md, mh)
	md, mh = x.base.MergeRun(s, b.hubs, b.dists)
	return meet(d, hub, md, mh)
}

// meet keeps the smaller distance, and between equal ones the smaller hub.
func meet(d graph.Dist, hub graph.Vertex, d2 graph.Dist, hub2 graph.Vertex) (graph.Dist, graph.Vertex) {
	if d2 < d || d2 == d && hub2 < hub {
		return d2, hub2
	}
	return d, hub
}

// QueryBatch answers many pairs in parallel (threads <= 0: GOMAXPROCS).
func (x *Index) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	return graph.BatchQuery(x.Query, pairs, threads)
}

// CheckInsert applies InsertEdge's structural rules to {u,v,w} without
// mutating anything; errors wrap ErrInvalid. The living-graph pipeline
// calls it before logging an update, so every logged record applies.
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
// the index; a parallel edge no lighter than an existing one changes no
// distance. Edges CheckInsert refuses are rejected (ErrInvalid).
func (x *Index) InsertEdge(u, v graph.Vertex, w graph.Dist) error {
	if err := x.CheckInsert(u, v, w); err != nil {
		return err
	}
	x.addHalfEdge(u, v, w)
	x.addHalfEdge(v, u, w)
	x.resume(u, v, w)
	x.resume(v, u, w)
	for _, y := range x.dirty {
		x.delta[y].Store(x.own[y])
		x.own[y] = nil
	}
	x.dirty = x.dirty[:0]
	return nil
}

// addHalfEdge appends to a copy of from's row: the base row lives in the
// graph's shared CSR storage.
func (x *Index) addHalfEdge(from, to graph.Vertex, w graph.Dist) {
	ns, ws := x.neighbors(from)
	x.grown[from] = adjRow{append(slices.Clip(ns), to), append(slices.Clip(ws), w)}
}

// resume continues, for every hub h of L(endpoint), h's pruned Dijkstra
// across the new edge: the frontier reopens at seed (the edge's other
// end) at d(h,endpoint)+w, a real path length, and the search installs
// or tightens exactly the labels the insertion invalidated. Its prune
// test is the build's, label.Probe over the writer's labels: L(h), base
// and run, scattered once, then at each pop u's base tiers read in place
// and u's run scanned.
func (x *Index) resume(endpoint, seed graph.Vertex, w graph.Dist) {
	for _, e := range x.ends.union(x.base, endpoint, x.run(endpoint)) {
		d0 := graph.AddDist(e.D, w)
		if d0 == graph.Inf {
			continue
		}
		// Fast reject: the seed's base entry for h covers d0 (a run entry
		// is below it), so Run would scatter L(h) to prune its first pop.
		if x.base.HubDist(seed, e.Hub) <= d0 {
			continue
		}
		hub := x.base.Union(e.Hub, x.entries(e.Hub))
		x.ps.Run(pll.Seed{Hub: e.Hub, Start: seed, D0: d0}, hub, x.neighbors, x.entries, x.install)
	}
}

// run returns v's run as the writer sees it: this insert's copy if any.
func (x *Index) run(v graph.Vertex) *run {
	if r := x.own[v]; r != nil {
		return r
	}
	return x.delta[v].Load()
}

// entries is v's run as the writer sees it, as the entries label.Probe
// scans beside L(v)'s base tiers, one segment; valid until the next call.
func (x *Index) entries(v graph.Vertex) label.List {
	r := x.run(v)
	x.buf = x.buf[:0]
	for i, h := range r.hubs {
		x.buf = append(x.buf, label.Entry{Hub: h, D: r.dists[i]})
	}
	return label.ListOf(x.buf)
}

// install is the settle hook of a resumed search: add the label e at u,
// or tighten u's entry for its hub, in this insert's copy of u's run.
func (x *Index) install(u graph.Vertex, e label.Entry) {
	r := x.own[u]
	if r == nil {
		pub := x.delta[u].Load()
		n := len(pub.hubs) + 4 // room for a few installs
		r = &run{append(make([]graph.Vertex, 0, n), pub.hubs...), append(make([]graph.Dist, 0, n), pub.dists...)}
		x.own[u], x.dirty = r, append(x.dirty, u)
	}
	i, found := slices.BinarySearch(r.hubs, e.Hub)
	if found {
		r.dists[i] = e.D
		return
	}
	r.hubs, r.dists = slices.Insert(r.hubs, i, e.Hub), slices.Insert(r.dists, i, e.D)
	x.added.Add(1)
	if x.base.HubDist(u, e.Hub) != graph.Inf {
		x.shadows.Add(1)
	}
}
