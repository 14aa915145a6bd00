// Package sssp implements the classic shortest-path baselines the paper
// compares against or builds on: Dijkstra, bidirectional Dijkstra for
// point-to-point queries, Bellman–Ford, Floyd–Warshall and BFS for
// unweighted hop counts. These serve as the index-free query baseline from
// the paper's introduction and as ground truth in every correctness test of
// the PLL index; Bellman–Ford and Floyd–Warshall exist so that Dijkstra
// itself is checked against solvers built differently.
package sssp

import (
	"parapll/internal/graph"
	"parapll/internal/vheap"
)

// Dijkstra computes the distance from s to every vertex using the radix
// heap, skipping each stale pop. Unreachable vertices get graph.Inf.
func Dijkstra(g *graph.Graph, s graph.Vertex) []graph.Dist {
	n := g.NumVertices()
	dist := make([]graph.Dist, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[s] = 0
	var h vheap.Radix
	h.Push(s, 0)
	for h.Len() > 0 {
		u, d := h.Pop()
		if d != dist[u] {
			continue
		}
		ns, ws := g.Neighbors(u)
		for i, v := range ns {
			nd := graph.AddDist(d, ws[i])
			if nd < dist[v] {
				dist[v] = nd
				h.Push(v, nd)
			}
		}
	}
	return dist
}

// Query answers a single point-to-point distance with Dijkstra that stops
// as soon as t is settled. This is the "no index" baseline whose per-query
// cost the paper's introduction estimates at ~125 ms for n = 0.1M.
func Query(g *graph.Graph, s, t graph.Vertex) graph.Dist {
	if s == t {
		return 0
	}
	n := g.NumVertices()
	dist := make([]graph.Dist, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[s] = 0
	var h vheap.Radix
	h.Push(s, 0)
	for h.Len() > 0 {
		u, d := h.Pop()
		if d != dist[u] {
			continue
		}
		if u == t {
			return d
		}
		ns, ws := g.Neighbors(u)
		for i, v := range ns {
			nd := graph.AddDist(d, ws[i])
			if nd < dist[v] {
				dist[v] = nd
				h.Push(v, nd)
			}
		}
	}
	return graph.Inf
}

// BiQuery answers a point-to-point distance with bidirectional Dijkstra:
// two searches grow from s and t and stop when the frontiers guarantee the
// best meeting distance is final. On road-like graphs it explores far fewer
// vertices than Query.
func BiQuery(g *graph.Graph, s, t graph.Vertex) graph.Dist {
	if s == t {
		return 0
	}
	n := g.NumVertices()
	distF := make([]graph.Dist, n)
	distB := make([]graph.Dist, n)
	for i := 0; i < n; i++ {
		distF[i] = graph.Inf
		distB[i] = graph.Inf
	}
	distF[s], distB[t] = 0, 0
	var hf, hb vheap.Radix
	hf.Push(s, 0)
	hb.Push(t, 0)
	best := graph.Inf
	settledF := make([]bool, n)
	settledB := make([]bool, n)
	for hf.Len() > 0 || hb.Len() > 0 {
		// Expand the smaller frontier head; stop when the sum of both
		// heads can no longer improve best. A stale head is a lower
		// bound, so it can only delay the stop.
		var topF, topB graph.Dist = graph.Inf, graph.Inf
		if hf.Len() > 0 {
			_, topF = hf.Peek()
		}
		if hb.Len() > 0 {
			_, topB = hb.Peek()
		}
		if graph.AddDist(topF, topB) >= best {
			break
		}
		forward := topF <= topB && hf.Len() > 0
		if hf.Len() == 0 {
			forward = false
		} else if hb.Len() == 0 {
			forward = true
		}
		h, dist, other, settled, otherSettled := &hf, distF, distB, settledF, settledB
		if !forward {
			h, dist, other, settled, otherSettled = &hb, distB, distF, settledB, settledF
		}
		u, d := h.Pop()
		if d != dist[u] {
			continue
		}
		settled[u] = true
		if otherSettled[u] {
			continue
		}
		if nd := graph.AddDist(d, other[u]); nd < best {
			best = nd
		}
		ns, ws := g.Neighbors(u)
		for i, v := range ns {
			nd := graph.AddDist(d, ws[i])
			if nd < dist[v] {
				dist[v] = nd
				h.Push(v, nd)
				if cand := graph.AddDist(nd, other[v]); cand < best {
					best = cand
				}
			}
		}
	}
	return best
}
