package order

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
)

func star(n int) *graph.Graph {
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: graph.Vertex(i + 1), W: 1}
	}
	return graph.FromEdges(n, edges)
}

func TestDegreeOrder(t *testing.T) {
	g := star(8)
	ord := Degree(g)
	if ord[0] != 0 {
		t.Fatalf("hub not first: %v", ord)
	}
	if graph.CheckOrder(ord, g.NumVertices()) != nil {
		t.Fatal("degree order not a permutation")
	}
}

func TestRandomOrder(t *testing.T) {
	g := star(50)
	a := Random(g, 1)
	b := Random(g, 1)
	c := Random(g, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed differs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds identical (vanishingly unlikely)")
	}
	if graph.CheckOrder(a, g.NumVertices()) != nil || graph.CheckOrder(c, g.NumVertices()) != nil {
		t.Fatal("random order not a permutation")
	}
}

func TestPsiSampleStar(t *testing.T) {
	// Every shortest path in a star passes through the hub.
	g := star(20)
	ord := PsiSample(g, 8, 3)
	if ord[0] != 0 {
		t.Fatalf("ψ order should put the hub first, got %v", ord[:3])
	}
	if graph.CheckOrder(ord, g.NumVertices()) != nil {
		t.Fatal("psi order not a permutation")
	}
}

func TestPsiSampleBridge(t *testing.T) {
	// Two cliques joined by a bridge vertex: the bridge carries all
	// cross-clique shortest paths even though its degree (2) is minimal.
	var edges []graph.Edge
	for i := graph.Vertex(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, graph.Edge{U: i, V: j, W: 1})
		}
	}
	for i := graph.Vertex(6); i < 11; i++ {
		for j := i + 1; j < 11; j++ {
			edges = append(edges, graph.Edge{U: i, V: j, W: 1})
		}
	}
	edges = append(edges, graph.Edge{U: 4, V: 5, W: 1}, graph.Edge{U: 5, V: 6, W: 1})
	g := graph.FromEdges(11, edges)
	ord := PsiSample(g, 16, 4)
	// The bridge (5) or its endpoints (4, 6) must rank in the top three.
	top := map[graph.Vertex]bool{ord[0]: true, ord[1]: true, ord[2]: true}
	if !top[5] && !top[4] && !top[6] {
		t.Fatalf("bridge region not ranked high: top3 = %v", ord[:3])
	}
}

func TestPsiSampleDeterministic(t *testing.T) {
	g := star(30)
	if !reflect.DeepEqual(PsiSample(g, 4, 9), PsiSample(g, 4, 9)) {
		t.Fatal("PsiSample not deterministic for fixed seed")
	}
}

func TestPsiSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for samples < 1")
		}
	}()
	PsiSample(star(4), 0, 1)
}

func TestOrdersOnGeneratedGraphs(t *testing.T) {
	for _, name := range []string{"Gnutella", "RI-USA"} {
		rec, err := gen.FindRecipe(name)
		if err != nil {
			t.Fatal(err)
		}
		g := rec.Generate(0.01)
		for policy, ord := range map[string][]graph.Vertex{
			"degree": Degree(g),
			"random": Random(g, 5),
			"psi":    PsiSample(g, 4, 5),
		} {
			if graph.CheckOrder(ord, g.NumVertices()) != nil {
				t.Errorf("%s/%s: not a permutation", name, policy)
			}
		}
	}
}

// TestPsiSampleParallelMatchesSerial pins the worker pool's contract:
// the estimate is a pure function of (g, samples, seed), so a build
// with one worker and a build with many must agree exactly.
func TestPsiSampleParallelMatchesSerial(t *testing.T) {
	rec, err := gen.FindRecipe("Gnutella")
	if err != nil {
		t.Fatal(err)
	}
	g := rec.Generate(0.01)
	prev := runtime.GOMAXPROCS(1)
	serial := PsiSample(g, 16, 42)
	runtime.GOMAXPROCS(8)
	parallel := PsiSample(g, 16, 42)
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("PsiSample differs between 1 and 8 workers")
	}
}

// TestPsiSampleScratchReuse runs many samples through the same worker
// scratch (samples >> workers) so a missed reset between samples would
// corrupt the estimate relative to the known star answer.
func TestPsiSampleScratchReuse(t *testing.T) {
	g := star(40)
	ord := PsiSample(g, 50, 7)
	if ord[0] != 0 {
		t.Fatalf("star center ranked %v, want vertex 0 first", ord[0])
	}
	if graph.CheckOrder(ord, g.NumVertices()) != nil {
		t.Fatal("not a permutation")
	}
}

// BenchmarkDegreeOrder prices the residual weighted-degree sequence on the
// benchmark's build graphs, a p2p and a road shape.
func BenchmarkDegreeOrder(b *testing.B) {
	for _, c := range []struct {
		dataset string
		scale   float64
	}{{"Gnutella", 0.35}, {"RI-USA", 0.07}} {
		rec, err := gen.FindRecipe(c.dataset)
		if err != nil {
			b.Fatal(err)
		}
		g := rec.Generate(c.scale)
		b.Run(fmt.Sprintf("%s@%g", c.dataset, c.scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Degree(g)
			}
		})
	}
}
