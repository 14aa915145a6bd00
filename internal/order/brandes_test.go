package order

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/sssp"
	"parapll/internal/vheap"
)

// BetweennessScores computes exact weighted betweenness centrality with
// Brandes' algorithm (one Dijkstra plus one dependency-accumulation pass
// per source, O(nm + n² log n) total). Betweenness is the exact version
// of the ψ measure ParaPLL's Proposition 2 reasons about — the number of
// shortest paths through a vertex — so it is the oracle that validates
// PsiSample. Only practical for small and mid-size graphs.
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

func TestBetweennessPath(t *testing.T) {
	// Path 0-1-2-3-4: analytic betweenness of vertex i is
	// (#pairs separated by i) = i * (n-1-i) for internal vertices.
	n := 5
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.Vertex(i), V: graph.Vertex(i + 1), W: 2}
	}
	g := graph.FromEdges(n, edges)
	bc := BetweennessScores(g)
	want := []float64{0, 3, 4, 3, 0}
	for i := range want {
		if math.Abs(bc[i]-want[i]) > 1e-9 {
			t.Fatalf("bc[%d] = %v, want %v (all: %v)", i, bc[i], want[i], bc)
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star: center carries all C(n-1,2) pairs, leaves none.
	g := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 1}, {U: 0, V: 4, W: 1}, {U: 0, V: 5, W: 1},
	})
	bc := BetweennessScores(g)
	if math.Abs(bc[0]-10) > 1e-9 { // C(5,2)
		t.Fatalf("center bc = %v, want 10", bc[0])
	}
	for i := 1; i < 6; i++ {
		if bc[i] != 0 {
			t.Fatalf("leaf %d bc = %v, want 0", i, bc[i])
		}
	}
}

func TestBetweennessEqualPathSplitting(t *testing.T) {
	// Diamond 0-{1,2}-3 with equal weights: the two middle vertices each
	// carry half of the single (0,3) pair.
	g := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 1, V: 3, W: 1}, {U: 2, V: 3, W: 1},
	})
	bc := BetweennessScores(g)
	if math.Abs(bc[1]-0.5) > 1e-9 || math.Abs(bc[2]-0.5) > 1e-9 {
		t.Fatalf("diamond middles = %v, want 0.5 each", bc)
	}
}

// bruteBetweenness counts shortest-path dependencies by enumerating all
// shortest paths via Floyd–Warshall path counting.
func bruteBetweenness(g *graph.Graph) []float64 {
	n := g.NumVertices()
	d := sssp.FloydWarshall(g)
	// count[s][t] = number of shortest s-t paths.
	count := make([][]float64, n)
	for s := 0; s < n; s++ {
		count[s] = make([]float64, n)
	}
	// DP over vertices sorted by distance from s.
	for s := 0; s < n; s++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return d[s][idx[a]] < d[s][idx[b]] })
		count[s][s] = 1
		for _, v := range idx {
			if v == s || d[s][v] == graph.Inf {
				continue
			}
			ns, ws := g.Neighbors(graph.Vertex(v))
			for i, u := range ns {
				if d[s][u] != graph.Inf && graph.AddDist(d[s][u], ws[i]) == d[s][v] {
					count[s][v] += count[s][int(u)]
				}
			}
		}
	}
	bc := make([]float64, n)
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			if d[s][t] == graph.Inf {
				continue
			}
			for v := 0; v < n; v++ {
				if v == s || v == t || d[s][v] == graph.Inf || d[v][t] == graph.Inf {
					continue
				}
				if graph.AddDist(d[s][v], d[v][t]) == d[s][t] {
					bc[v] += count[s][v] * count[v][t] / count[s][t]
				}
			}
		}
	}
	return bc
}

func TestBetweennessAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(600))
	for trial := 0; trial < 8; trial++ {
		n := 6 + r.Intn(12)
		edges := make([]graph.Edge, 0, 3*n)
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: graph.Dist(1 + r.Intn(4))})
		}
		for i := 0; i < 2*n; i++ {
			edges = append(edges, graph.Edge{U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(4))})
		}
		g := graph.FromEdges(n, edges)
		fast := BetweennessScores(g)
		slow := bruteBetweenness(g)
		for v := range fast {
			if math.Abs(fast[v]-slow[v]) > 1e-6 {
				t.Fatalf("trial %d vertex %d: brandes %v, brute %v", trial, v, fast[v], slow[v])
			}
		}
	}
}

func TestBetweennessRejectsZeroWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero-weight edge")
		}
	}()
	BetweennessScores(graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 0}}))
}

func TestBetweennessOrderPermutation(t *testing.T) {
	g := star(20)
	ord := Betweenness(g)
	if graph.CheckOrder(ord, g.NumVertices()) != nil {
		t.Fatal("betweenness order not a permutation")
	}
	if ord[0] != 0 {
		t.Fatalf("star center should rank first, got %v", ord[:3])
	}
}

// TestPsiSampleCorrelatesWithBetweenness validates the sampling
// estimator against the exact oracle: on a structured graph the top
// exact-betweenness vertex must appear near the top of the ψ order.
func TestPsiSampleCorrelatesWithBetweenness(t *testing.T) {
	// Two stars joined by a bridge: centers and bridge dominate.
	var edges []graph.Edge
	for i := graph.Vertex(1); i < 10; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i, W: 1})
	}
	for i := graph.Vertex(11); i < 20; i++ {
		edges = append(edges, graph.Edge{U: 10, V: i, W: 1})
	}
	edges = append(edges, graph.Edge{U: 0, V: 10, W: 1})
	g := graph.FromEdges(20, edges)
	exact := Betweenness(g)
	sampled := PsiSample(g, 16, 9)
	exactTop := map[graph.Vertex]bool{exact[0]: true, exact[1]: true}
	if !exactTop[sampled[0]] {
		t.Fatalf("ψ-sample top %d not among exact top-2 %v", sampled[0], exact[:2])
	}
}
