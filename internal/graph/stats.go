package graph

import (
	"cmp"
	"slices"
)

// Summary holds headline statistics of a graph.
type Summary struct {
	N          int // vertices
	M          int // undirected edges
	MinDegree  int
	MaxDegree  int
	AvgDegree  float64
	Components int
	MaxWeight  Dist
	MinWeight  Dist
}

// Summarize computes a Summary of g.
func Summarize(g *Graph) Summary {
	s := Summary{N: g.NumVertices(), M: g.NumEdges(), MinWeight: Inf}
	if s.N == 0 {
		s.MinWeight = 0
		return s
	}
	s.MinDegree = g.Degree(0)
	for v := 0; v < s.N; v++ {
		d := g.Degree(Vertex(v))
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		_, ws := g.Neighbors(Vertex(v))
		for _, w := range ws {
			if w > s.MaxWeight {
				s.MaxWeight = w
			}
			if w < s.MinWeight {
				s.MinWeight = w
			}
		}
	}
	if s.M == 0 {
		s.MinWeight = 0
	}
	s.AvgDegree = 2 * float64(s.M) / float64(s.N)
	_, s.Components = ConnectedComponents(g)
	return s
}

// DegreeOrder returns the vertices of g by weighted degree descending,
// the paper's computing sequence ("from higher degree to lower degree",
// §4.2, degree standing in for ψ(v) of Proposition 2) with each edge
// counted by its weight: strength s(v) = Σ ⌊2³²/(w+1)⌋ over v's edges,
// descending, since light edges route more shortest paths through v.
// Ties go to the smaller vertex id. Where every weight is equal, s(v) is
// a fixed multiple of the degree and the sequence is the paper's degree
// order, ties by id.
func DegreeOrder(g *Graph) []Vertex {
	type key struct {
		s uint64
		v Vertex
	}
	n := g.NumVertices()
	keys := make([]key, n)
	for v := range keys {
		var s uint64
		for _, w := range g.wt[g.off[v]:g.off[v+1]] {
			s += (1 << 32) / (uint64(w) + 1)
		}
		keys[v] = key{s, Vertex(v)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.s != b.s {
			return cmp.Compare(b.s, a.s)
		}
		return cmp.Compare(a.v, b.v)
	})
	order := make([]Vertex, n)
	for i, k := range keys {
		order[i] = k.v
	}
	return order
}
