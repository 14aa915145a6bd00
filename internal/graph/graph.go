// Package graph provides the weighted undirected graph substrate used by
// every other package in this repository: a compact CSR (compressed sparse
// row) representation, edge-list preprocessing, text/binary I/O, connected
// components, and degree statistics.
//
// Distances are uint32 with a saturating infinity sentinel, which keeps
// label storage small (the paper reports memory proportional to n·LN) while
// still covering road-network-scale path lengths.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Vertex identifies a vertex. Graphs produced by this package always number
// vertices densely from 0 to NumVertices-1.
type Vertex = int32

// Dist is a path distance or edge weight. The zero value is a valid
// distance; Inf marks "unreachable".
type Dist = uint32

// Inf is the distance sentinel for unreachable pairs. All arithmetic on
// distances must go through AddDist so that Inf saturates instead of
// wrapping around.
const Inf Dist = ^Dist(0)

// AddDist returns a+b, saturating at Inf. It is the only safe way to add
// two distances: adding to Inf stays Inf, and overflow clamps to Inf.
func AddDist(a, b Dist) Dist {
	if a == Inf || b == Inf {
		return Inf
	}
	s := a + b
	if s < a { // wrapped
		return Inf
	}
	return s
}

// Edge is one undirected weighted edge.
type Edge struct {
	U, V Vertex
	W    Dist
}

// Graph is an immutable weighted undirected graph in CSR form. Both
// directions of every undirected edge are materialized, so the adjacency of
// u is adj[off[u]:off[u+1]].
type Graph struct {
	off []int64  // len n+1; prefix sums of degrees
	adj []Vertex // len 2m; neighbor ids
	wt  []Dist   // len 2m; weights parallel to adj
}

// NumVertices returns n, the number of vertices.
func (g *Graph) NumVertices() int { return len(g.off) - 1 }

// NumEdges returns m, the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v Vertex) int {
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns the neighbor and weight slices of v. The returned
// slices alias the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v Vertex) ([]Vertex, []Dist) {
	lo, hi := g.off[v], g.off[v+1]
	return g.adj[lo:hi], g.wt[lo:hi]
}

// HasEdge reports whether an edge {u,v} exists and returns its weight.
func (g *Graph) HasEdge(u, v Vertex) (Dist, bool) {
	ns, ws := g.Neighbors(u)
	for i, x := range ns {
		if x == v {
			return ws[i], true
		}
	}
	return Inf, false
}

// Edges returns every undirected edge exactly once, with U < V.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := Vertex(0); int(u) < g.NumVertices(); u++ {
		ns, ws := g.Neighbors(u)
		for i, v := range ns {
			if u < v {
				out = append(out, Edge{U: u, V: v, W: ws[i]})
			}
		}
	}
	return out
}

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	best := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(Vertex(v)); d > best {
			best = d
		}
	}
	return best
}

// FromEdges builds a Graph with n vertices from an edge list. The list is
// normalized first: self-loops are dropped, duplicate edges keep the
// smallest weight, and both endpoint orders are accepted. It panics if an
// endpoint is out of [0,n) or a weight is Inf — those are programming
// errors in callers, not recoverable conditions. It runs in O(n+m) plus
// the sort of each vertex's upper neighbours.
func FromEdges(n int, edges []Edge) *Graph {
	norm := NormalizeEdges(n, edges)
	g := &Graph{
		off: make([]int64, n+1),
		adj: make([]Vertex, 2*len(norm)),
		wt:  make([]Dist, 2*len(norm)),
	}
	for _, e := range norm {
		g.off[e.U+1]++
		g.off[e.V+1]++
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	// norm is sorted by (U,V), so row x receives its lower neighbours (in
	// buckets U < x) in increasing order before its upper ones (bucket x):
	// every row comes out strictly increasing without a sort.
	cursor := slices.Clone(g.off[:n])
	for _, e := range norm {
		g.adj[cursor[e.U]], g.wt[cursor[e.U]] = e.V, e.W
		cursor[e.U]++
		g.adj[cursor[e.V]], g.wt[cursor[e.V]] = e.U, e.W
		cursor[e.V]++
	}
	return g
}

// NormalizeEdges canonicalizes an undirected edge list: endpoints ordered
// U < V, self-loops removed, duplicates collapsed to their minimum weight.
// The input is not modified; the result is sorted by (U,V).
func NormalizeEdges(n int, edges []Edge) []Edge {
	// Counting sort by the smaller endpoint: start[u+1] counts bucket u.
	start := make([]int, n+1)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if int(e.U) < 0 || int(e.U) >= n || int(e.V) < 0 || int(e.V) >= n {
			panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.V, n))
		}
		if e.W == Inf {
			panic(fmt.Sprintf("graph: edge {%d,%d} has infinite weight", e.U, e.V))
		}
		start[min(e.U, e.V)+1]++
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	norm := make([]Edge, start[n])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		norm[start[e.U]] = e
		start[e.U]++
	}
	// Placing advanced start[u] to the end of bucket u.
	lo := 0
	for u := 0; u < n; u++ {
		slices.SortFunc(norm[lo:start[u]], func(a, b Edge) int {
			if a.V != b.V {
				return cmp.Compare(a.V, b.V)
			}
			return cmp.Compare(a.W, b.W)
		})
		lo = start[u]
	}
	out := norm[:0]
	for _, e := range norm {
		if len(out) > 0 && out[len(out)-1].U == e.U && out[len(out)-1].V == e.V {
			continue // keep the first (smallest-weight) copy
		}
		out = append(out, e)
	}
	return out
}
