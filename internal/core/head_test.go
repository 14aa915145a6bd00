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
// store keeps the first roots' labels as head columns and scans them in
// its prune test, prunes exactly where serial PLL over plain lists does —
// so it writes the same PIDM bytes — in the degree, ψ and random orders,
// on a p2p and a road graph. The heads these builds keep are one to three
// blocks wide: under ψ the first block is less than half full, and the
// head closes after it. Twelve one-thread builds: skipped under -short,
// where the race pass would spend minutes on them and find nothing.
func TestSingleThreadPIDMMatchesSerialInEveryOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve one-thread builds")
	}
	for _, name := range []string{"Gnutella", "RI-USA"} {
		g := recipe(t, name, 0.05)
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
