package order

import (
	"sort"

	"parapll/internal/graph"
	"parapll/internal/vheap"
)

// BetweennessScores computes exact weighted betweenness centrality with
// Brandes' algorithm (one Dijkstra plus one dependency-accumulation pass
// per source, O(nm + n² log n) total). Betweenness is the exact version
// of the ψ measure ParaPLL's Proposition 2 reasons about — the number of
// shortest paths through a vertex — so this serves both as the highest-
// quality (and most expensive) ordering policy and as the oracle that
// validates PsiSample. Only practical for small and mid-size graphs.
// Edge weights must be strictly positive: zero-weight edges create
// equal-distance shortest-path DAG edges whose settle order breaks the
// dependency accumulation, so they are rejected.
func BetweennessScores(g *graph.Graph) []float64 {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		_, ws := g.Neighbors(graph.Vertex(v))
		for _, w := range ws {
			if w == 0 {
				panic("order: BetweennessScores requires strictly positive edge weights")
			}
		}
	}
	bc := make([]float64, n)
	dist := make([]graph.Dist, n)
	sigma := make([]float64, n) // number of shortest paths from s
	delta := make([]float64, n) // dependency accumulator
	preds := make([][]graph.Vertex, n)
	settled := make([]graph.Vertex, 0, n)
	var h vheap.Radix

	for s := 0; s < n; s++ {
		for i := 0; i < n; i++ {
			dist[i] = graph.Inf
			sigma[i] = 0
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		settled = settled[:0]
		dist[s] = 0
		sigma[s] = 1
		h.Reset()
		h.Push(graph.Vertex(s), 0)
		for h.Len() > 0 {
			u, d := h.Pop()
			if d != dist[u] {
				continue
			}
			settled = append(settled, u)
			ns, ws := g.Neighbors(u)
			for i, v := range ns {
				nd := graph.AddDist(d, ws[i])
				switch {
				case nd < dist[v]:
					dist[v] = nd
					h.Push(v, nd)
					sigma[v] = sigma[u]
					preds[v] = append(preds[v][:0], u)
				case nd == dist[v] && nd != graph.Inf:
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], u)
				}
			}
		}
		// Accumulate dependencies in reverse settle order.
		for i := len(settled) - 1; i >= 0; i-- {
			w := settled[i]
			for _, p := range preds[w] {
				delta[p] += sigma[p] / sigma[w] * (1 + delta[w])
			}
			if int(w) != s {
				bc[w] += delta[w]
			}
		}
	}
	// Undirected: every path counted from both endpoints.
	for i := range bc {
		bc[i] /= 2
	}
	return bc
}

// Betweenness returns vertices by exact betweenness descending — the
// gold-standard computing sequence Proposition 2's ψ ordering describes.
// Ties break by smaller id.
func Betweenness(g *graph.Graph) []graph.Vertex {
	bc := BetweennessScores(g)
	out := make([]graph.Vertex, g.NumVertices())
	for i := range out {
		out[i] = graph.Vertex(i)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if bc[out[i]] != bc[out[j]] {
			return bc[out[i]] > bc[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
