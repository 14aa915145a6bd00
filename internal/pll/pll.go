// Package pll implements the serial weighted Pruned Landmark Labeling
// baseline — the paper's "weighted serial version" (§4.1, Algorithm 1) that
// every ParaPLL speedup in Tables 3–5 is measured against — and Searcher,
// the one pruned Dijkstra every index kind in the repository runs.
//
// Indexing runs one Pruned Dijkstra per vertex in a chosen order. The
// search from root r is pruned at any vertex u whose distance is already
// covered by the 2-hop labels built so far (QUERY(r,u) ≤ D[u]); surviving
// vertices receive the label (r, D[u]). The paper gives
// O(wm·log²n + w²n·log²n) for tree-width w (§4.1) with a binary heap; on
// the radix heap (vheap) one search's queue work is O(m + n·log C) for
// largest distance C (O(m·log C) at worst, as a stale item moves down
// the buckets too), beside its prune tests.
package pll

import (
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/vheap"
)

// Trace records per-root instrumentation used by the paper's Figure 6
// (cumulative distribution of labels added by the x-th Pruned Dijkstra).
type Trace struct {
	// AddedPerRoot[k] is the number of labels created by the k-th Pruned
	// Dijkstra in the computing sequence.
	AddedPerRoot []int64
	// PrunedPerRoot[k] is the number of settled vertices the k-th search
	// pruned (dequeued but covered by existing labels).
	PrunedPerRoot []int64
	// WorkPerRoot[k] is a machine-independent work measure of the k-th
	// search (heap pops + edge relaxations + label entries scanned). The
	// harness uses it to compute projected speedups on machines with too
	// few cores to show wall-clock scaling.
	WorkPerRoot []int64
}

// alloc sizes the trace for n roots.
func (t *Trace) alloc(n int) {
	t.AddedPerRoot = make([]int64, n)
	t.PrunedPerRoot = make([]int64, n)
	t.WorkPerRoot = make([]int64, n)
}

// TotalWork sums WorkPerRoot.
func (t *Trace) TotalWork() int64 {
	var sum int64
	for _, w := range t.WorkPerRoot {
		sum += w
	}
	return sum
}

// Options configures a serial build.
type Options struct {
	// Order is the computing sequence; nil means graph.DegreeOrder (the
	// paper's policy). It must be a permutation of the vertices.
	Order []graph.Vertex
	// Trace, when non-nil, is filled with per-root instrumentation.
	Trace *Trace
}

// Build indexes g serially and returns the finalized 2-hop index.
func Build(g *graph.Graph, opt Options) *label.Index {
	return label.NewIndexFromLists(Labels(g, opt))
}

// Labels indexes g serially and returns the label lists Build finalizes,
// one a vertex, each in the order its hubs were added.
func Labels(g *graph.Graph, opt Options) [][]label.Entry {
	n := g.NumVertices()
	ord := opt.Order
	if ord == nil {
		ord = graph.DegreeOrder(g)
	} else if err := graph.CheckOrder(ord, n); err != nil {
		panic("pll: Order must be a permutation of the vertices: " + err.Error())
	}
	if opt.Trace != nil {
		opt.Trace.alloc(n)
	}

	labels := make([][]label.Entry, n)
	ps := NewSearcher(n)
	get := func(u graph.Vertex) label.List { return label.ListOf(labels[u]) }
	add := func(u graph.Vertex, e label.Entry) { labels[u] = append(labels[u], e) }
	for k, r := range ord {
		added, pruned := ps.Run(Seed{Hub: r, Start: r}, label.Label{Rest: label.ListOf(labels[r])}, g.Neighbors, get, add)
		if opt.Trace != nil {
			opt.Trace.AddedPerRoot[k] = added
			opt.Trace.PrunedPerRoot[k] = pruned
			opt.Trace.WorkPerRoot[k] = ps.LastWork()
		}
	}
	return labels
}

// Seed says where one pruned search starts: the frontier opens at Start
// with tentative distance D0 from Hub. A full Pruned Dijkstra from root r
// is Seed{Hub: r, Start: r}; the dynamic index resumes hub h's search
// across a new edge {u,v} with Seed{h, v, d(h,u)+w}.
type Seed struct {
	Hub, Start graph.Vertex
	D0         graph.Dist
}

// Searcher is the repository's one Pruned Dijkstra (paper Algorithm 1's
// inner loop). It owns only the reusable per-search scratch: a
// tentative-distance array with a touched list (reset in time
// proportional to the search, not n), the hub's side of the prune
// test (label.Probe), and the priority queue. What is searched arrives
// per Run as closures, so one scratch serves any adjacency (a CSR graph,
// a growing overlay) over a store or an index with runs over it; see
// DESIGN.md "Pruned search kernel".
//
// A Searcher is not safe for concurrent use; parallel indexers give each
// worker its own Searcher over a shared label store.
type Searcher struct {
	dist    []graph.Dist
	probe   *label.Probe // the seed's hub's side of the prune test
	touched []graph.Vertex
	heap    vheap.Radix
	work    int64 // ops in the most recent Run: pops + relaxations + label scans
}

// LastWork returns the machine-independent work measure (heap pops, edge
// relaxations, label entries and head cells scanned in prune queries) of
// the most recent Run. Used for projected-speedup accounting.
func (ps *Searcher) LastWork() int64 { return ps.work }

// NewSearcher returns scratch for searches over vertices [0,n).
func NewSearcher(n int) *Searcher {
	ps := &Searcher{
		dist:  make([]graph.Dist, n),
		probe: label.NewProbe(n),
	}
	for i := 0; i < n; i++ {
		ps.dist[i] = graph.Inf
	}
	return ps
}

// Run executes one pruned search from seed and returns how many vertices
// it settled and how many popped vertices it pruned.
//
//   - hub is the hub-side half of the prune query, L(seed.Hub); it is
//     read once, before the first pop.
//   - adj returns a vertex's neighbor and weight rows (not retained).
//   - getLabel returns the vertex-side half of the prune query for a
//     popped vertex, what the probe does not read itself: a store's list
//     outside the build-time head, or a run over an index (label.Probe).
//     A stale snapshot is fine: seeing fewer labels only weakens pruning,
//     never correctness (Proposition 1).
//   - settle commits the label (seed.Hub, d) at a popped vertex u the
//     cover does not already answer. It runs before u is expanded and
//     may rewrite u's label list.
func (ps *Searcher) Run(
	seed Seed,
	hub label.Label,
	adj func(graph.Vertex) ([]graph.Vertex, []graph.Dist),
	getLabel func(graph.Vertex) label.List,
	settle func(u graph.Vertex, e label.Entry),
) (added, pruned int64) {
	ps.work = 0
	ps.probe.Set(hub)

	ps.dist[seed.Start] = seed.D0
	ps.touched = append(ps.touched, seed.Start)
	ps.heap.Reset()
	ps.heap.Push(seed.Start, seed.D0)

	for ps.heap.Len() > 0 {
		u, d := ps.heap.Pop()
		if d != ps.dist[u] {
			continue // stale: u was queued again, closer
		}
		ps.work++ // settled pop

		// Prune test: QUERY(hub, u) over existing labels ≤ D[u]?
		lbl := getLabel(u)
		ps.work += int64(ps.probe.Width() + lbl.Len())
		if ps.probe.Covers(u, lbl, d) {
			pruned++
			continue
		}
		settle(u, label.Entry{Hub: seed.Hub, D: d})
		added++

		ns, ws := adj(u)
		ps.work += int64(len(ns))
		for i, v := range ns {
			nd := graph.AddDist(d, ws[i])
			if nd < ps.dist[v] {
				if ps.dist[v] == graph.Inf {
					ps.touched = append(ps.touched, v)
				}
				ps.dist[v] = nd
				ps.heap.Push(v, nd)
			}
		}
	}

	// Reset scratch state in O(search size).
	for _, v := range ps.touched {
		ps.dist[v] = graph.Inf
	}
	ps.touched = ps.touched[:0]
	return added, pruned
}
