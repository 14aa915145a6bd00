package gen

import (
	"fmt"

	"parapll/internal/graph"
)

// RMAT generates a recursive-matrix (R-MAT / Kronecker-like) graph with
// 2^scale vertices and m unique undirected edges. Each edge lands in one
// of four quadrants of the adjacency matrix with probabilities
// (a, b, c, d), recursively; the canonical "nice" parameters
// (0.57, 0.19, 0.19, 0.05) yield skewed degrees with community-like
// block structure — flatter hub hierarchy than preferential attachment,
// so it degrades more gracefully under the cluster's hub-subset
// partition (see EXPERIMENTS.md). Probabilities must sum to 1 within
// 1e-6. Weights are uniform in [1,8].
func RMAT(scale int, m int, a, b, c, d float64, seed uint64) *graph.Graph {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("gen: RMAT scale %d out of [1,30]", scale))
	}
	if sum := a + b + c + d; sum < 1-1e-6 || sum > 1+1e-6 {
		panic(fmt.Sprintf("gen: RMAT probabilities sum to %v, want 1", sum))
	}
	n := 1 << uint(scale)
	maxM := int64(n) * int64(n-1) / 2
	if int64(m) > maxM {
		panic(fmt.Sprintf("gen: RMAT m=%d exceeds max %d", m, maxM))
	}
	r := NewRNG(seed)
	s := newEdgeSet(n, m)
	attempts := 0
	maxAttempts := 100 * m
	for s.len() < m && attempts < maxAttempts {
		attempts++
		var u, v int
		for bit := 0; bit < scale; bit++ {
			x := r.Float64()
			switch {
			case x < a:
				// top-left: no bits set
			case x < a+b:
				v |= 1 << uint(bit)
			case x < a+b+c:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		s.add(graph.Vertex(u), graph.Vertex(v), uniformWeight(r, 1, 8))
	}
	// Duplicate pressure in the hot quadrant can starve convergence on
	// dense settings; finish with uniform edges.
	for s.len() < m {
		s.add(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)), uniformWeight(r, 1, 8))
	}
	return graph.FromEdges(n, s.list)
}

// RMATNice is RMAT with the canonical (0.57, 0.19, 0.19, 0.05)
// parameters from the Graph500 benchmark.
func RMATNice(scale, m int, seed uint64) *graph.Graph {
	return RMAT(scale, m, 0.57, 0.19, 0.19, 0.05, seed)
}
