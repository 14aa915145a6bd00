// Package order computes vertex computing sequences ("orders") for PLL
// indexing. The order determines pruning power: labels indexed early should
// cover as many shortest paths as possible (the paper's §4.2 and
// Proposition 2, where ψ(v) — the number of shortest paths through v —
// measures a vertex's pruning potential).
//
// Three policies are provided:
//
//   - Degree: the paper's choice, weighted and residual
//     (graph.DegreeOrder): highest remaining weighted degree first, ties
//     by id, each vertex taken discounting half of its edges from its
//     unpicked neighbours. With equal weights it starts where the
//     paper's degree order does. Cheap and close to optimal on power-law
//     graphs where hubs carry most shortest paths, and on road networks,
//     where most vertices share a degree, the weights make it beat
//     ψ-sampling too.
//   - PsiSample: a sampled estimate of ψ(v) via shortest-path-tree subtree
//     sizes from random roots (after Potamias et al., the paper's [18]).
//     Costlier than Degree, and at 8 samples larger on both shapes.
//   - Random: the control/ablation baseline, deliberately bad.
//
// A Strategy interface is intentionally avoided: an order is just a
// []graph.Vertex permutation, and policies are plain functions.
package order

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/vheap"
)

// Degree returns the residual weighted-degree sequence
// (graph.DegreeOrder), the paper's degree order with weights and with
// each picked hub discounting its neighbours.
func Degree(g *graph.Graph) []graph.Vertex {
	return graph.DegreeOrder(g)
}

// Random returns a seeded random permutation of the vertices: the
// worst-case control for ordering ablations.
func Random(g *graph.Graph, seed uint64) []graph.Vertex {
	r := gen.NewRNG(seed)
	p := r.Perm(g.NumVertices())
	out := make([]graph.Vertex, len(p))
	for i, v := range p {
		out[i] = graph.Vertex(v)
	}
	return out
}

// PsiSample estimates ψ(v) — how many shortest paths pass through v — by
// running Dijkstra from `samples` random roots and accumulating, for every
// vertex, the size of its subtree in each shortest-path tree (the number
// of tree descendants whose root paths pass through it). Vertices are
// returned in descending estimated ψ. samples must be ≥ 1; larger samples
// sharpen the estimate at linear cost.
//
// Samples are independent, so they run on a GOMAXPROCS-wide worker pool,
// each worker owning reusable Dijkstra scratch (reset in time
// proportional to the search, not n) and a private ψ accumulator. The
// roots are all drawn before any worker starts and the per-sample
// contributions are summed, so the result is a pure function of
// (g, samples, seed) — identical to the serial computation regardless of
// how the pool schedules.
func PsiSample(g *graph.Graph, samples int, seed uint64) []graph.Vertex {
	n := g.NumVertices()
	if samples < 1 {
		panic("order: PsiSample needs samples >= 1")
	}
	r := gen.NewRNG(seed)
	var roots []graph.Vertex
	if n > 0 {
		roots = make([]graph.Vertex, samples)
		for s := range roots {
			roots[s] = graph.Vertex(r.Intn(n))
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(roots) {
		workers = len(roots)
	}
	if workers < 1 {
		workers = 1
	}
	perWorker := make([][]uint64, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := make([]uint64, n)
			perWorker[w] = acc
			sc := newPsiScratch(n)
			for {
				s := int(next.Add(1)) - 1
				if s >= len(roots) {
					return
				}
				sc.accumulate(g, roots[s], acc)
			}
		}(w)
	}
	wg.Wait()
	psi := make([]uint64, n)
	for _, acc := range perWorker {
		for i, x := range acc {
			psi[i] += x
		}
	}
	out := make([]graph.Vertex, n)
	for i := range out {
		out[i] = graph.Vertex(i)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if psi[out[i]] != psi[out[j]] {
			return psi[out[i]] > psi[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// psiScratch is one PsiSample worker's reusable Dijkstra state: the
// tentative-distance and shortest-path-tree arrays plus the settle-order
// buffer, all reset in time proportional to the search's reach.
type psiScratch struct {
	dist     []graph.Dist
	parent   []graph.Vertex
	size     []uint64
	orderBuf []graph.Vertex
	h        vheap.Radix
}

func newPsiScratch(n int) *psiScratch {
	sc := &psiScratch{
		dist:     make([]graph.Dist, n),
		parent:   make([]graph.Vertex, n),
		size:     make([]uint64, n),
		orderBuf: make([]graph.Vertex, 0, n),
	}
	for i := 0; i < n; i++ {
		sc.dist[i] = graph.Inf
		sc.parent[i] = -1
	}
	return sc
}

// accumulate runs one shortest-path tree from root and adds every
// vertex's subtree size into psi.
func (sc *psiScratch) accumulate(g *graph.Graph, root graph.Vertex, psi []uint64) {
	sc.dist[root] = 0
	sc.orderBuf = sc.orderBuf[:0]
	sc.h.Reset()
	sc.h.Push(root, 0)
	for sc.h.Len() > 0 {
		u, d := sc.h.Pop()
		if d != sc.dist[u] {
			continue
		}
		sc.orderBuf = append(sc.orderBuf, u)
		ns, ws := g.Neighbors(u)
		for i, v := range ns {
			nd := graph.AddDist(d, ws[i])
			if nd < sc.dist[v] {
				sc.dist[v] = nd
				sc.parent[v] = u
				sc.h.Push(v, nd)
			}
		}
	}
	// Settle order is topological for the SP tree: walk it backwards
	// accumulating subtree sizes into each parent.
	for i := len(sc.orderBuf) - 1; i >= 0; i-- {
		v := sc.orderBuf[i]
		sc.size[v]++
		psi[v] += sc.size[v]
		if p := sc.parent[v]; p >= 0 {
			sc.size[p] += sc.size[v]
		}
	}
	// Every vertex with finite dist, a parent, or a nonzero size was
	// settled, hence on orderBuf: reset covers exactly the touched state.
	for _, v := range sc.orderBuf {
		sc.dist[v] = graph.Inf
		sc.parent[v] = -1
		sc.size[v] = 0
	}
}
