package gen

import (
	"fmt"
	"math"
	"sort"

	"parapll/internal/graph"
)

// edgeSet accumulates unique undirected edges keyed by (min,max) pair.
type edgeSet struct {
	n    int
	seen map[uint64]struct{}
	list []graph.Edge
}

// newEdgeSet sizes the set for the m edges its generator aims at.
func newEdgeSet(n, m int) *edgeSet {
	return &edgeSet{n: n, seen: make(map[uint64]struct{}, m), list: make([]graph.Edge, 0, m)}
}

func (s *edgeSet) add(u, v graph.Vertex, w graph.Dist) bool {
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	key := uint64(u)*uint64(s.n) + uint64(v)
	if _, dup := s.seen[key]; dup {
		return false
	}
	s.seen[key] = struct{}{}
	s.list = append(s.list, graph.Edge{U: u, V: v, W: w})
	return true
}

func (s *edgeSet) len() int { return len(s.list) }

// uniformWeight draws an integer weight in [lo,hi].
func uniformWeight(r *RNG, lo, hi graph.Dist) graph.Dist {
	if hi <= lo {
		return lo
	}
	return lo + graph.Dist(r.Intn(int(hi-lo+1)))
}

// ErdosRenyi generates G(n,m): m distinct uniform random edges with weights
// in [1,8]. It panics if m exceeds the number of possible edges.
func ErdosRenyi(n, m int, seed uint64) *graph.Graph {
	maxM := int64(n) * int64(n-1) / 2
	if int64(m) > maxM {
		panic(fmt.Sprintf("gen: ErdosRenyi m=%d exceeds max %d", m, maxM))
	}
	r := NewRNG(seed)
	s := newEdgeSet(n, m)
	for s.len() < m {
		u := graph.Vertex(r.Intn(n))
		v := graph.Vertex(r.Intn(n))
		s.add(u, v, uniformWeight(r, 1, 8))
	}
	return graph.FromEdges(n, s.list)
}

// ChungLu generates a power-law graph with n vertices and (approximately,
// from above-sampling to exactly) m edges whose expected degree sequence
// follows deg(i) ∝ (i+i0)^(-1/(beta-1)) — the standard Chung–Lu model used
// to mimic social networks such as Wiki-Vote, Epinions, AskUbuntu and
// EuAll. beta is the power-law exponent, typically 2.0–2.5; smaller beta
// gives heavier hubs (AS-style topologies).
func ChungLu(n, m int, beta float64, seed uint64) *graph.Graph {
	if beta <= 1 {
		panic("gen: ChungLu needs beta > 1")
	}
	r := NewRNG(seed)
	// Cumulative weight table for endpoint sampling by binary search.
	alpha := 1 / (beta - 1)
	cum := make([]float64, n+1)
	const i0 = 10 // offset keeps the largest hubs from absorbing everything
	for i := 0; i < n; i++ {
		cum[i+1] = cum[i] + math.Pow(float64(i+i0), -alpha)
	}
	total := cum[n]
	pick := func() graph.Vertex {
		x := r.Float64() * total
		// First index with cum[idx+1] > x.
		idx := sort.SearchFloat64s(cum[1:], x)
		if idx >= n {
			idx = n - 1
		}
		return graph.Vertex(idx)
	}
	s := newEdgeSet(n, m)
	attempts := 0
	maxAttempts := 50 * m
	for s.len() < m && attempts < maxAttempts {
		attempts++
		s.add(pick(), pick(), uniformWeight(r, 1, 8))
	}
	// If duplicate pressure around the hubs starved us, finish uniformly.
	for s.len() < m {
		s.add(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)), uniformWeight(r, 1, 8))
	}
	return graph.FromEdges(n, s.list)
}

// PreferentialAttachment generates a Barabási–Albert graph: vertices arrive
// one at a time and attach k edges to existing vertices chosen
// proportionally to their current degree. The result has heavy hubs and is
// connected by construction; it mimics router-level AS topologies such as
// Skitter and AS-Relation.
func PreferentialAttachment(n, k int, seed uint64) *graph.Graph {
	if k < 1 || n < k+1 {
		panic("gen: PreferentialAttachment needs n > k >= 1")
	}
	r := NewRNG(seed)
	s := newEdgeSet(n, k*n)
	// endpoints holds each edge endpoint once; sampling a uniform element
	// is sampling a vertex proportional to degree.
	endpoints := make([]graph.Vertex, 0, 2*k*n)
	// Seed clique over the first k+1 vertices.
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			if s.add(graph.Vertex(u), graph.Vertex(v), uniformWeight(r, 1, 8)) {
				endpoints = append(endpoints, graph.Vertex(u), graph.Vertex(v))
			}
		}
	}
	for u := k + 1; u < n; u++ {
		added := 0
		for attempt := 0; added < k && attempt < 20*k; attempt++ {
			var v graph.Vertex
			if r.Intn(10) == 0 { // small uniform chance keeps the tail alive
				v = graph.Vertex(r.Intn(u))
			} else {
				v = endpoints[r.Intn(len(endpoints))]
			}
			if s.add(graph.Vertex(u), v, uniformWeight(r, 1, 8)) {
				endpoints = append(endpoints, graph.Vertex(u), v)
				added++
			}
		}
	}
	return graph.FromEdges(n, s.list)
}

// RoadGrid generates a road-network-like graph: a rows×cols 4-neighbor
// grid (avg degree ≈ 4 interior, matching TIGER road graphs' near-uniform
// low-degree distribution) with extra edges added as random short diagonals
// until m total edges exist, and a small fraction of grid edges removed to
// break perfect regularity. Weights model street lengths: grid edges are
// 100–200, diagonals √2 longer. If m is below the grid edge count the grid
// is thinned (keeping a spanning structure is not guaranteed).
func RoadGrid(rows, cols, m int, seed uint64) *graph.Graph {
	n := rows * cols
	r := NewRNG(seed)
	id := func(i, j int) graph.Vertex { return graph.Vertex(i*cols + j) }
	s := newEdgeSet(n, m)
	type gridEdge struct{ u, v graph.Vertex }
	var base []gridEdge
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				base = append(base, gridEdge{id(i, j), id(i, j+1)})
			}
			if i+1 < rows {
				base = append(base, gridEdge{id(i, j), id(i+1, j)})
			}
		}
	}
	// Shuffle the base grid edges and keep at most m of them.
	for i := len(base) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		base[i], base[j] = base[j], base[i]
	}
	keep := len(base)
	if m < keep {
		keep = m
	}
	for _, e := range base[:keep] {
		s.add(e.u, e.v, uniformWeight(r, 100, 200))
	}
	// Top up with short diagonals until we reach m.
	for s.len() < m {
		i := r.Intn(rows - 1)
		j := r.Intn(cols - 1)
		if r.Intn(2) == 0 {
			s.add(id(i, j), id(i+1, j+1), uniformWeight(r, 141, 282))
		} else {
			s.add(id(i, j+1), id(i+1, j), uniformWeight(r, 141, 282))
		}
	}
	return graph.FromEdges(n, s.list)
}

// Collaboration generates a CondMat-style co-authorship network: vertices
// are grouped into overlapping "papers" (cliques of 2–6 authors) until m
// edges exist. Degrees are moderately skewed, far short of power-law hubs.
func Collaboration(n, m int, seed uint64) *graph.Graph {
	r := NewRNG(seed)
	s := newEdgeSet(n, m)
	guard := 0
	for s.len() < m && guard < 100*m {
		guard++
		size := 2 + r.Intn(5)
		paper := make([]graph.Vertex, size)
		// A slight bias toward low ids creates "prolific authors".
		for i := range paper {
			a := r.Intn(n)
			b := r.Intn(n)
			if a < b {
				paper[i] = graph.Vertex(a)
			} else {
				paper[i] = graph.Vertex(b)
			}
		}
		w := uniformWeight(r, 1, 8)
		for i := 0; i < size && s.len() < m; i++ {
			for j := i + 1; j < size && s.len() < m; j++ {
				s.add(paper[i], paper[j], w)
			}
		}
	}
	return graph.FromEdges(n, s.list)
}
