package core

import (
	"bytes"
	"math/rand"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/order"
	"parapll/internal/pll"
	"parapll/internal/sssp"
)

// recipe generates a bundled dataset's graph at scale.
func recipe(t *testing.T, name string, scale float64) *graph.Graph {
	t.Helper()
	rec, err := gen.FindRecipe(name)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Generate(scale)
}

// pidmBytes is x written as a PIDM file.
func pidmBytes(t *testing.T, x *label.Index) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := x.WriteMmap(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSingleThreadPIDMMatchesSerialInEveryOrder: a one-thread build, whose
// store keeps the first roots' labels as head cells and scans them in
// its prune test, prunes exactly where serial PLL over plain lists does —
// so it writes the same PIDM bytes — in the degree, ψ and random orders,
// on a p2p graph, where nearly every head entry fits a cell; a road
// graph, where nearly every one overflows into the lists; and the p2p
// graph with its weights multiplied by 32, whose distances straddle the
// cell's limit, so that one head hub holds cells for near vertices and
// list entries for far ones. Eighteen one-thread builds: skipped under
// -short, where the race pass would spend minutes on them and find
// nothing.
func TestSingleThreadPIDMMatchesSerialInEveryOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("eighteen one-thread builds")
	}
	for _, name := range []string{"Gnutella", "RI-USA", "Gnutella*32"} {
		var g *graph.Graph
		if name == "Gnutella*32" {
			g = straddling(t, recipe(t, "Gnutella", 0.05))
		} else {
			g = recipe(t, name, 0.05)
		}
		for oname, ord := range map[string][]graph.Vertex{
			"degree": order.Degree(g),
			"psi":    order.PsiSample(g, 8, 3),
			"random": order.Random(g, 4),
		} {
			want := pidmBytes(t, pll.Build(g, pll.Options{Order: ord}))
			for _, policy := range []Policy{Static, Dynamic} {
				x, stats := BuildWithStats(g, Options{Threads: 1, Policy: policy, Order: ord})
				k, fill := stats.Head()
				if k == 0 {
					t.Fatalf("%s/%s/%v: the build kept no head", name, oname, policy)
				}
				if got := pidmBytes(t, x); !bytes.Equal(got, want) {
					t.Fatalf("%s/%s/%v (head %d columns, fill %.2f): %d PIDM bytes differ from serial PLL's %d", name, oname, policy, k, fill, len(got), len(want))
				}
			}
		}
	}
}

// straddling returns g with every weight multiplied by 32, after checking
// that the top hub of its degree order then labels vertices both within
// a head cell's reach (a distance of at most 254) and beyond it.
func straddling(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	edges := g.Edges()
	for i := range edges {
		edges[i].W *= 32
	}
	g = graph.FromEdges(g.NumVertices(), edges)
	top := order.Degree(g)[0]
	near, far := 0, 0
	for _, d := range sssp.Dijkstra(g, top) {
		switch {
		case d <= 254:
			near++
		case d != graph.Inf:
			far++
		}
	}
	if near < 10 || far < 10 {
		t.Fatalf("the top hub is within 254 of %d vertices and beyond it from %d: the graph does not straddle a cell", near, far)
	}
	return g
}

// TestHeadBuildsMatchDijkstra is Proposition 1 with the head: at 2 and 8
// threads, under both policies and in both engines, cells that other
// workers have not written yet only weaken pruning, and every answer
// stays exact.
func TestHeadBuildsMatchDijkstra(t *testing.T) {
	for _, name := range []string{"Gnutella", "RI-USA"} {
		g := recipe(t, name, 0.03)
		n := g.NumVertices()
		r := rand.New(rand.NewSource(7))
		sources := make([]graph.Vertex, 24)
		want := make([][]graph.Dist, len(sources))
		for i := range sources {
			sources[i] = graph.Vertex(r.Intn(n))
			want[i] = sssp.Dijkstra(g, sources[i])
		}
		for _, ec := range []struct {
			name string
			eng  Engine
		}{{"perroot", PerRoot{}}, {"batched", Batched{}}} {
			for _, threads := range []int{2, 8} {
				for _, policy := range []Policy{Static, Dynamic} {
					x, stats := BuildWithStats(g, Options{Threads: threads, Policy: policy, Engine: ec.eng})
					if k, _ := stats.Head(); k == 0 {
						t.Fatalf("%s %s/%d/%v: the build kept no head", name, ec.name, threads, policy)
					}
					for i, s := range sources {
						for u := graph.Vertex(0); int(u) < n; u++ {
							if got := x.Query(s, u); got != want[i][u] {
								t.Fatalf("%s %s/%d/%v: query(%d,%d) = %d, want %d", name, ec.name, threads, policy, s, u, got, want[i][u])
							}
						}
					}
				}
			}
		}
	}
}
