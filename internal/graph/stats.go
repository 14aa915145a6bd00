package graph

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

// DegreeOrder returns the paper's computing sequence ("from higher
// degree to lower degree", §4.2, degree standing in for ψ(v) of
// Proposition 2), weighted and made residual. Each edge gives both ends
// its conductance ⌊2³²/max(w,1)⌋, since light edges route more shortest
// paths through a vertex, and a vertex's score starts as the sum over
// its edges. The sequence repeatedly takes the unpicked vertex of
// highest remaining score, ties to the smaller id; taking v costs each
// unpicked neighbour u half of edge (v,u)'s conductance, standing for
// the paths through u that v, now a hub above it, already covers. Half
// is measured (EXPERIMENTS.md, "Residual weighted-degree sequence"): a
// full discount loses on social graphs, and ¼ and ¾ gain less. The
// first vertex has the largest starting score; where every weight is
// equal it has the largest degree.
//
// O((n+m) log n): a binary heap with one entry a vertex, re-sifted when
// its key is found stale at the top (scores only fall, so an entry whose
// key is current is the true maximum), at most once a discount.
func DegreeOrder(g *Graph) []Vertex {
	n := g.NumVertices()
	score := make([]uint64, n)
	h := make(scoreHeap, n)
	for v := range h {
		for _, w := range g.wt[g.off[v]:g.off[v+1]] {
			score[v] += conductance(w)
		}
		h[v] = scoreEntry{score[v], Vertex(v)}
	}
	h.init()
	picked := make([]bool, n)
	order := make([]Vertex, 0, n)
	for len(h) > 0 {
		if s := score[h[0].v]; h[0].s != s {
			h[0].s = s
			h.down(0)
			continue
		}
		v := h.pop()
		picked[v] = true
		order = append(order, v)
		ns, ws := g.Neighbors(v)
		for i, u := range ns {
			if !picked[u] {
				score[u] -= conductance(ws[i]) / 2
			}
		}
	}
	return order
}

// conductance is an edge's share of a vertex's score, ⌊2³²/max(w,1)⌋: a
// weight-1 edge and a weight-0 one count alike, and the heaviest finite
// weight counts 1.
func conductance(w Dist) uint64 { return (1 << 32) / uint64(max(w, 1)) }

// scoreEntry is a vertex and its score when last sifted.
type scoreEntry struct {
	s uint64
	v Vertex
}

// scoreHeap is a binary max-heap of scoreEntry: higher score first, then
// smaller id. It is typed rather than a container/heap, whose interface
// calls made DegreeOrder about 1.5x slower on Gnutella@0.35.
type scoreHeap []scoreEntry

func (h scoreHeap) before(i, j int) bool {
	if h[i].s != h[j].s {
		return h[i].s > h[j].s
	}
	return h[i].v < h[j].v
}

func (h scoreHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h scoreHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h.before(c+1, c) {
			c++
		}
		if !h.before(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// pop removes the top entry and returns its vertex.
func (h *scoreHeap) pop() Vertex {
	old := *h
	v := old[0].v
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
	return v
}
