package graph

import "slices"

// Distances is an exact distance oracle over the vertices
// 0..NumVertices()-1, such as an index of a graph.
type Distances interface {
	Query(s, t Vertex) Dist
	NumVertices() int
}

// Path returns a shortest s-t path in g and its length, walked by x, an
// exact distance oracle for g (an index of g): from u it steps to the
// first neighbour v, in adjacency order, over a positive-weight edge
// with w(u,v) + d(v,t) = d(u,t), summed in 64 bits so that an Inf never
// wraps. Where none passes, every shortest u-t path starts with
// zero-weight edges, and zeroLevel finds one. One query a probed
// neighbour.
//
// It returns ([s], 0) for s == t, and (nil, Inf) when x's vertex count
// is not g's, when s or t is not a vertex of g, when the pair is
// disconnected, or when the walk meets a vertex it cannot leave (x is
// of another graph). It never loops, whatever x answers: a step lowers
// d(·,t), and zeroLevel visits a vertex once.
func Path(g *Graph, x Distances, s, t Vertex) ([]Vertex, Dist) {
	n := g.NumVertices()
	if x.NumVertices() != n || s < 0 || int(s) >= n || t < 0 || int(t) >= n {
		return nil, Inf
	}
	if s == t {
		return []Vertex{s}, 0
	}
	d := x.Query(s, t)
	if d == Inf {
		return nil, Inf
	}
	path := []Vertex{s}
	for u, left := s, d; u != t; u = path[len(path)-1] {
		if v, w := step(g, x, u, t, left); v >= 0 {
			path, left = append(path, v), left-w
		} else if level := zeroLevel(g, x, u, t, left); level != nil {
			path = append(path, level...)
		} else {
			return nil, Inf
		}
	}
	return path, d
}

// step returns the first neighbour v of u over a positive-weight edge
// with w(u,v) + d(v,t) = left, and w(u,v); (-1, 0) when none passes.
func step(g *Graph, x Distances, u, t Vertex, left Dist) (Vertex, Dist) {
	ns, ws := g.Neighbors(u)
	for i, v := range ns {
		if w := ws[i]; w > 0 && uint64(w)+uint64(x.Query(v, t)) == uint64(left) {
			return v, w
		}
	}
	return -1, 0
}

// zeroLevel searches breadth-first from u over zero-weight edges to
// vertices v with d(v,t) = left, stopping at t or at a vertex with a
// passing step, and returns the path to it without u; nil if none.
func zeroLevel(g *Graph, x Distances, u, t Vertex, left Dist) []Vertex {
	parent := map[Vertex]Vertex{u: u}
	for queue := []Vertex{u}; len(queue) > 0; queue = queue[1:] {
		ns, ws := g.Neighbors(queue[0])
		for i, v := range ns {
			if _, seen := parent[v]; seen || ws[i] != 0 || x.Query(v, t) != left {
				continue
			}
			parent[v] = queue[0]
			if next, _ := step(g, x, v, t, left); next >= 0 || v == t {
				var level []Vertex
				for ; v != u; v = parent[v] {
					level = append(level, v)
				}
				slices.Reverse(level)
				return level
			}
			queue = append(queue, v)
		}
	}
	return nil
}
