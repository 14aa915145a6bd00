package core

import (
	"math/rand"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/sssp"
)

// TestQueryBatchAgainstDijkstra holds the batch kernel to ground truth
// on the benchmark's own p2p graph, which is not connected: a pair across
// components must come back Inf from a kernel whose dense array holds Inf
// for "no such hub", and every other pair must match Dijkstra exactly,
// whether the batch has 32 sources, 512, or one pair per source — with
// the graph's own weights, which fit a 1-byte distance, and with the
// same weights scaled into a 2-byte and into a 4-byte one.
func TestQueryBatchAgainstDijkstra(t *testing.T) {
	for _, tc := range []struct {
		factor graph.Dist
		width  int
	}{{1, 1}, {300, 2}, {100_000, 4}} {
		testQueryBatchAgainstDijkstra(t, tc.factor, tc.width)
	}
}

func testQueryBatchAgainstDijkstra(t *testing.T, factor graph.Dist, width int) {
	scale := 0.35 // the benchmark's: n = 3807, LN ~245, 5 components
	if testing.Short() {
		scale = 0.12 // n = 1305, 4 components: the race pass's size
	}
	rec, err := gen.FindRecipe("Gnutella")
	if err != nil {
		t.Fatal(err)
	}
	unit := rec.Generate(scale)
	edges := unit.Edges()
	for i := range edges {
		edges[i].W *= factor
	}
	g := graph.FromEdges(unit.NumVertices(), edges)
	n := g.NumVertices()
	comp, k := graph.ConnectedComponents(g)
	if k < 2 {
		t.Fatalf("Gnutella@%v is connected: no pair across components to ask for", scale)
	}
	x := Build(g, Options{Threads: 2})
	if x.DistBytes() != width {
		t.Fatalf("weights x%d: %d-byte distances, want %d", factor, x.DistBytes(), width)
	}

	// 512 sources, the first of them one vertex from each component.
	r := rand.New(rand.NewSource(35))
	var sources []graph.Vertex
	seen := make(map[int32]bool)
	for v := 0; v < n; v++ {
		if !seen[comp[v]] {
			seen[comp[v]] = true
			sources = append(sources, graph.Vertex(v))
		}
	}
	for len(sources) < 512 {
		sources = append(sources, graph.Vertex(r.Intn(n)))
	}
	truth := make(map[graph.Vertex][]graph.Dist, len(sources))
	for _, s := range sources {
		truth[s] = sssp.Dijkstra(g, s)
	}

	for _, batch := range []struct {
		name         string
		sources      []graph.Vertex
		size         int
		onePerSource bool
	}{
		{"32sources", sources[:32], 2000, false},
		{"512sources", sources, 2000, false},
		{"uniform", sources, len(sources), true},
	} {
		pairs := make([][2]graph.Vertex, batch.size)
		unreachable := 0
		for i := range pairs {
			s := batch.sources[r.Intn(len(batch.sources))]
			if batch.onePerSource {
				s = batch.sources[i]
			}
			pairs[i] = [2]graph.Vertex{s, graph.Vertex(r.Intn(n))}
			if i%97 == 0 {
				pairs[i][1] = s // s == t among the rest
			}
			if truth[s][pairs[i][1]] == graph.Inf {
				unreachable++
			}
		}
		if unreachable == 0 {
			t.Fatalf("weights x%d %s: no pair across components was drawn", factor, batch.name)
		}
		for _, threads := range []int{1, 2, 8} {
			for i, d := range x.QueryBatch(pairs, threads) {
				if want := truth[pairs[i][0]][pairs[i][1]]; d != want {
					t.Fatalf("weights x%d %s threads=%d: pair %d %v = %d, Dijkstra says %d", factor, batch.name, threads, i, pairs[i], d, want)
				}
			}
		}
	}
}
