// Package pathidx extends ParaPLL's distance index to full shortest-path
// reconstruction. The paper works with P(s,t), the shortest path itself
// (its route-selection use case needs the hops, not just σ(P(s,t)));
// this package stores, with every label (h, d) ∈ L(u), the predecessor
// of u on the path from hub h. A query then finds the meeting hub as
// usual and unwinds the two predecessor chains.
//
// The chain-unwinding is sound because a pruned Dijkstra only relaxes
// neighbors of vertices it did NOT prune, and every non-pruned settled
// vertex receives a label: if u's label for hub h names parent w, then w
// was expanded in the same search and therefore carries a label for h
// too. This holds equally for parallel construction.
package pathidx

import (
	"sort"

	"parapll/internal/core"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// Entry is one path-augmented 2-hop label.
type Entry struct {
	Hub    graph.Vertex
	D      graph.Dist
	Parent graph.Vertex // predecessor on the hub→vertex shortest path; == vertex itself at the hub
}

// Options configures a path-index build.
type Options struct {
	// Threads is the number of parallel workers; <= 0 means GOMAXPROCS.
	Threads int
	// Policy is the assignment policy (core.Static or core.Dynamic).
	Policy core.Policy
	// Order is the computing sequence; nil means degree descending.
	Order []graph.Vertex
}

// Index answers exact distance and path queries.
type Index struct {
	off     []int64
	hubs    []graph.Vertex
	dists   []graph.Dist
	parents []graph.Vertex
}

// Build constructs a path-augmented index (parallel, like core.Build).
// Distances go to a label.Store exactly as in core; predecessors go to a
// second store of the same shape whose entry (h, p) in row u means "u's
// predecessor on the path from hub h is vertex p" — the D field carries
// a vertex id there. Each (u, h) pair is settled by exactly one search,
// so after hub-sorting the two rows of u line up entry for entry.
func Build(g *graph.Graph, opt Options) *Index {
	n := g.NumVertices()
	ord := opt.Order
	if ord == nil {
		ord = graph.DegreeOrder(g)
	}
	dists, parents := label.NewStore(n), label.NewStore(n)
	settle := func(u, pred graph.Vertex, e label.Entry) {
		dists.Append(u, e.Hub, e.D)
		parents.Append(u, e.Hub, graph.Dist(pred))
	}
	core.RunRoots(n, ord, opt.Threads, opt.Policy, func(int) func(graph.Vertex) {
		ps := pll.NewSearcher(n)
		return func(r graph.Vertex) {
			ps.Run(pll.Seed{Hub: r, Start: r}, dists.Snapshot(r), g.Neighbors, dists.Snapshot, settle)
		}
	})

	total := dists.TotalEntries()
	x := &Index{
		off:     make([]int64, 1, n+1),
		hubs:    make([]graph.Vertex, 0, total),
		dists:   make([]graph.Dist, 0, total),
		parents: make([]graph.Vertex, 0, total),
	}
	for v := graph.Vertex(0); int(v) < n; v++ {
		par := label.SortDedupe(parents.Snapshot(v))
		for i, e := range label.SortDedupe(dists.Snapshot(v)) {
			x.hubs = append(x.hubs, e.Hub)
			x.dists = append(x.dists, e.D)
			x.parents = append(x.parents, graph.Vertex(par[i].D))
		}
		x.off = append(x.off, int64(len(x.hubs)))
	}
	return x
}

// NumVertices returns the number of labeled vertices.
func (x *Index) NumVertices() int { return len(x.off) - 1 }

// NumEntries returns the total number of label entries.
func (x *Index) NumEntries() int64 { return x.off[len(x.off)-1] }

func (x *Index) label(v graph.Vertex) (hubs []graph.Vertex, dists []graph.Dist) {
	lo, hi := x.off[v], x.off[v+1]
	return x.hubs[lo:hi], x.dists[lo:hi]
}

// entryFor finds v's entry for the given hub by binary search.
func (x *Index) entryFor(v, hub graph.Vertex) (Entry, bool) {
	lo, hi := x.off[v], x.off[v+1]
	hubs := x.hubs[lo:hi]
	i := sort.Search(len(hubs), func(i int) bool { return hubs[i] >= hub })
	if i == len(hubs) || hubs[i] != hub {
		return Entry{}, false
	}
	return Entry{Hub: hub, D: x.dists[lo+int64(i)], Parent: x.parents[lo+int64(i)]}, true
}

// Query returns the exact distance between s and t (graph.Inf if
// disconnected).
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
	sh, sd := x.label(s)
	th, td := x.label(t)
	return label.MergeRuns(sh, sd, th, td)
}

// QueryBatch answers many (s,t) pairs in parallel (threads <= 0 means
// GOMAXPROCS). The index is immutable, so no synchronization is needed.
func (x *Index) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	return graph.BatchQuery(x.Query, pairs, threads)
}

// Path returns the vertex sequence of a shortest path from s to t and
// its distance. It returns (nil, Inf) for disconnected pairs and
// ([s], 0) for s == t. The path is exact: its edge weights sum to the
// returned distance.
func (x *Index) Path(s, t graph.Vertex) ([]graph.Vertex, graph.Dist) {
	if s == t {
		return []graph.Vertex{s}, 0
	}
	d, hub := x.QueryWithHub(s, t)
	if hub < 0 {
		return nil, graph.Inf
	}
	sHalf := x.chain(s, hub) // s … hub
	tHalf := x.chain(t, hub) // t … hub
	if sHalf == nil || tHalf == nil {
		return nil, graph.Inf // corrupt index; fail closed
	}
	path := sHalf
	for i := len(tHalf) - 2; i >= 0; i-- { // skip hub, reverse t-half
		path = append(path, tHalf[i])
	}
	return path, d
}

// chain unwinds the predecessor chain from v to hub (inclusive). It
// returns nil if the chain is broken or cyclic (which would indicate a
// bug, not a user error — tests assert it never happens).
func (x *Index) chain(v, hub graph.Vertex) []graph.Vertex {
	out := []graph.Vertex{v}
	cur := v
	for steps := 0; cur != hub; steps++ {
		if steps > x.NumVertices() {
			return nil
		}
		e, ok := x.entryFor(cur, hub)
		if !ok {
			return nil
		}
		cur = e.Parent
		out = append(out, cur)
	}
	return out
}
