package pathidx

import (
	"math/rand"
	"testing"

	"parapll/internal/core"
	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/sssp"
)

func randomGraph(r *rand.Rand, n, extra int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1+extra)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: graph.Dist(1 + r.Intn(30)),
		})
	}
	for i := 0; i < extra; i++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(30)),
		})
	}
	return graph.FromEdges(n, edges)
}

// validatePath checks the returned path is a real walk in g whose edge
// weights sum to exactly dist and whose endpoints are s and t.
func validatePath(t *testing.T, g *graph.Graph, s, tt graph.Vertex, path []graph.Vertex, dist graph.Dist) {
	t.Helper()
	if len(path) == 0 {
		t.Fatalf("empty path for (%d,%d)", s, tt)
	}
	if path[0] != s || path[len(path)-1] != tt {
		t.Fatalf("path endpoints %d..%d, want %d..%d", path[0], path[len(path)-1], s, tt)
	}
	var sum graph.Dist
	for i := 1; i < len(path); i++ {
		w, ok := g.HasEdge(path[i-1], path[i])
		if !ok {
			t.Fatalf("path step %d: no edge {%d,%d}", i, path[i-1], path[i])
		}
		sum = graph.AddDist(sum, w)
	}
	if sum != dist {
		t.Fatalf("path weights sum to %d, reported dist %d", sum, dist)
	}
}

func TestPathsExactAllPairs(t *testing.T) {
	r := rand.New(rand.NewSource(400))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(r, 15+r.Intn(30), 60)
		for _, policy := range []core.Policy{core.Static, core.Dynamic} {
			x := Build(g, Options{Threads: 3, Policy: policy})
			n := g.NumVertices()
			for s := graph.Vertex(0); int(s) < n; s++ {
				want := sssp.Dijkstra(g, s)
				for u := graph.Vertex(0); int(u) < n; u++ {
					d := x.Query(s, u)
					if d != want[u] {
						t.Fatalf("Query(%d,%d) = %d, want %d", s, u, d, want[u])
					}
					path, pd := x.Path(s, u)
					if want[u] == graph.Inf {
						if path != nil || pd != graph.Inf {
							t.Fatalf("disconnected pair returned path %v", path)
						}
						continue
					}
					if pd != want[u] {
						t.Fatalf("Path dist %d, want %d", pd, want[u])
					}
					validatePath(t, g, s, u, path, pd)
				}
			}
		}
	}
}

func TestPathSelf(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(401)), 10, 10)
	x := Build(g, Options{Threads: 2})
	path, d := x.Path(4, 4)
	if d != 0 || len(path) != 1 || path[0] != 4 {
		t.Fatalf("self path = %v, %d", path, d)
	}
}

func TestPathOnRealisticGraphs(t *testing.T) {
	for _, name := range []string{"Wiki-Vote", "DE-USA"} {
		rec, err := gen.FindRecipe(name)
		if err != nil {
			t.Fatal(err)
		}
		g := rec.Generate(0.01)
		x := Build(g, Options{Threads: 4, Policy: core.Dynamic})
		r := rand.New(rand.NewSource(402))
		n := g.NumVertices()
		for q := 0; q < 30; q++ {
			s := graph.Vertex(r.Intn(n))
			u := graph.Vertex(r.Intn(n))
			want := sssp.Query(g, s, u)
			path, d := x.Path(s, u)
			if d != want {
				t.Fatalf("%s: Path dist (%d,%d) = %d, want %d", name, s, u, d, want)
			}
			if want != graph.Inf {
				validatePath(t, g, s, u, path, d)
			}
		}
	}
}

func TestEntryFor(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	x := Build(g, Options{Threads: 1})
	// Every vertex labels itself with parent == itself.
	for v := graph.Vertex(0); v < 3; v++ {
		e, ok := x.entryFor(v, v)
		if !ok || e.D != 0 || e.Parent != v {
			t.Fatalf("self entry for %d = %+v, ok=%v", v, e, ok)
		}
	}
	if _, ok := x.entryFor(2, 99); ok {
		t.Fatal("bogus hub found")
	}
}

func TestBadOrderPanics(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	for name, ord := range map[string][]graph.Vertex{
		"short":        {0},
		"duplicate":    {0, 0, 1}, // would silently drop root 2 and answer Inf
		"out-of-range": {0, 1, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Build accepted corrupt order %v", name, ord)
				}
			}()
			Build(g, Options{Order: ord})
		}()
	}
}

func TestIndexCounters(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(403)), 30, 60)
	x := Build(g, Options{Threads: 2})
	if x.NumVertices() != 30 {
		t.Fatalf("NumVertices = %d", x.NumVertices())
	}
	if x.NumEntries() < int64(x.NumVertices()) {
		t.Fatalf("NumEntries = %d, want >= n", x.NumEntries())
	}
}
