package sssp

import (
	"math/rand"
	"reflect"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
)

// line returns the path graph 0-1-2-...-(n-1) with the given weights.
func line(ws ...graph.Dist) *graph.Graph {
	edges := make([]graph.Edge, len(ws))
	for i, w := range ws {
		edges[i] = graph.Edge{U: graph.Vertex(i), V: graph.Vertex(i + 1), W: w}
	}
	return graph.FromEdges(len(ws)+1, edges)
}

func TestDijkstraLine(t *testing.T) {
	g := line(3, 4, 5)
	d := Dijkstra(g, 0)
	want := []graph.Dist{0, 3, 7, 12}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("dist = %v, want %v", d, want)
	}
}

func TestDijkstraPrefersLighterPath(t *testing.T) {
	// 0-1 direct is 20; 0-2-1 is 5+7=12.
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 20}, {U: 0, V: 2, W: 5}, {U: 2, V: 1, W: 7}})
	d := Dijkstra(g, 0)
	if d[1] != 12 {
		t.Fatalf("d[1] = %d, want 12", d[1])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	d := Dijkstra(g, 0)
	if d[2] != graph.Inf || d[3] != graph.Inf {
		t.Fatalf("unreachable distances %v, want Inf", d[2:])
	}
}

func TestDijkstraZeroWeightEdges(t *testing.T) {
	g := line(0, 0, 5)
	d := Dijkstra(g, 0)
	want := []graph.Dist{0, 0, 0, 5}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("dist = %v, want %v", d, want)
	}
}

func TestDijkstraSingleVertex(t *testing.T) {
	g := graph.FromEdges(1, nil)
	d := Dijkstra(g, 0)
	if len(d) != 1 || d[0] != 0 {
		t.Fatalf("dist = %v", d)
	}
}

// randomGraph builds a random connected-ish weighted graph for oracles.
func randomGraph(r *rand.Rand, n, m int) *graph.Graph {
	edges := make([]graph.Edge, 0, m+n-1)
	// Random spanning tree keeps most pairs reachable.
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: graph.Dist(1 + r.Intn(50)),
		})
	}
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(50)),
		})
	}
	return graph.FromEdges(n, edges)
}

func TestAllAlgorithmsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		n := 5 + r.Intn(40)
		g := randomGraph(r, n, 2*n)
		fw := FloydWarshall(g)
		for _, s := range []graph.Vertex{0, graph.Vertex(n / 2), graph.Vertex(n - 1)} {
			dj := Dijkstra(g, s)
			bf := BellmanFord(g, s)
			if !reflect.DeepEqual(dj, bf) {
				t.Fatalf("trial %d: Bellman–Ford differs\n dj=%v\n bf=%v", trial, dj, bf)
			}
			if !reflect.DeepEqual(dj, fw[s]) {
				t.Fatalf("trial %d: Floyd–Warshall differs", trial)
			}
		}
	}
}

func TestPointQueriesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(50)
		g := randomGraph(r, n, 3*n)
		for q := 0; q < 20; q++ {
			s := graph.Vertex(r.Intn(n))
			u := graph.Vertex(r.Intn(n))
			full := Dijkstra(g, s)
			if got := Query(g, s, u); got != full[u] {
				t.Fatalf("Query(%d,%d) = %d, want %d", s, u, got, full[u])
			}
			if got := BiQuery(g, s, u); got != full[u] {
				t.Fatalf("BiQuery(%d,%d) = %d, want %d", s, u, got, full[u])
			}
		}
	}
}

func TestQueryDisconnected(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 3}, {U: 2, V: 3, W: 4}})
	if got := Query(g, 0, 3); got != graph.Inf {
		t.Fatalf("Query across components = %d, want Inf", got)
	}
	if got := BiQuery(g, 0, 3); got != graph.Inf {
		t.Fatalf("BiQuery across components = %d, want Inf", got)
	}
	if got := Query(g, 2, 2); got != 0 {
		t.Fatalf("Query(v,v) = %d, want 0", got)
	}
	if got := BiQuery(g, 2, 2); got != 0 {
		t.Fatalf("BiQuery(v,v) = %d, want 0", got)
	}
}

func TestBFSHopCounts(t *testing.T) {
	g := line(10, 20, 30) // weights ignored
	d := BFS(g, 0)
	want := []graph.Dist{0, 1, 2, 3}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("BFS = %v, want %v", d, want)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}})
	if d := BFS(g, 0); d[2] != graph.Inf {
		t.Fatalf("BFS unreachable = %d, want Inf", d[2])
	}
}

func TestOnRealisticDatasets(t *testing.T) {
	// Cross-check Dijkstra vs Bellman–Ford on scaled-down Table 2 graphs of
	// different families (power-law and road).
	for _, name := range []string{"Wiki-Vote", "DE-USA"} {
		rec, err := gen.FindRecipe(name)
		if err != nil {
			t.Fatal(err)
		}
		g := rec.Generate(0.02)
		if !reflect.DeepEqual(Dijkstra(g, 0), BellmanFord(g, 0)) {
			t.Fatalf("%s: Bellman–Ford differs from Dijkstra", name)
		}
	}
}

func BenchmarkDijkstra(b *testing.B) {
	rec, _ := gen.FindRecipe("Epinions")
	g := rec.Generate(0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, graph.Vertex(i%g.NumVertices()))
	}
}
