package dynamic

import (
	"math/rand"
	"reflect"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/pll"
	"parapll/internal/sssp"
)

func randomGraph(r *rand.Rand, n, extra int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1+extra)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: graph.Dist(1 + r.Intn(20)),
		})
	}
	for i := 0; i < extra; i++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(20)),
		})
	}
	return graph.FromEdges(n, edges)
}

// checkAllPairs verifies the dynamic index against Dijkstra on the
// *current* graph (base plus all inserted edges).
func checkAllPairs(t *testing.T, cur *graph.Graph, x *Index) {
	t.Helper()
	n := cur.NumVertices()
	for s := graph.Vertex(0); int(s) < n; s++ {
		want := sssp.Dijkstra(cur, s)
		for u := graph.Vertex(0); int(u) < n; u++ {
			if got := x.Query(s, u); got != want[u] {
				t.Fatalf("query(%d,%d) = %d, want %d", s, u, got, want[u])
			}
		}
	}
}

// TestFromIndexOfANarrowIndex: an index whose distances fit one byte
// comes back from FromIndex and ToIndex with the labels it went in with,
// at the width they earn again — and after an insert that joins a vertex
// on by an edge longer than that width holds, at the next one, exact.
func TestFromIndexOfANarrowIndex(t *testing.T) {
	const n = 120
	r := rand.New(rand.NewSource(21))
	g := graph.FromEdges(n+1, randomGraph(r, n, 200).Edges()) // vertex n is isolated
	built := pll.Build(g, pll.Options{})
	if built.DistBytes() != 1 {
		t.Fatalf("fixture has %d-byte distances, want 1", built.DistBytes())
	}
	x := FromIndex(g, built)
	if back := x.ToIndex(); !back.Equal(built) || back.DistBytes() != 1 {
		t.Fatalf("FromIndex then ToIndex: Equal %v, %d-byte distances", back.Equal(built), back.DistBytes())
	}
	if err := x.InsertEdge(0, n, 5000); err != nil {
		t.Fatal(err)
	}
	cur := withEdge(g, graph.Edge{U: 0, V: n, W: 5000})
	checkAllPairs(t, cur, x)
	wide := x.ToIndex()
	if wide.DistBytes() != 2 {
		t.Fatalf("after a 5000-unit edge: %d-byte distances, want 2", wide.DistBytes())
	}
	checkAllPairs(t, cur, FromIndex(cur, wide))
}

// withEdge returns cur plus one more edge.
func withEdge(cur *graph.Graph, e graph.Edge) *graph.Graph {
	return graph.FromEdges(cur.NumVertices(), append(cur.Edges(), e))
}

func TestInsertionsStayExact(t *testing.T) {
	r := rand.New(rand.NewSource(900))
	for trial := 0; trial < 6; trial++ {
		n := 15 + r.Intn(35)
		cur := randomGraph(r, n, 2*n)
		x := Build(cur, pll.Options{})
		checkAllPairs(t, cur, x)
		for ins := 0; ins < 12; ins++ {
			u := graph.Vertex(r.Intn(n))
			v := graph.Vertex(r.Intn(n))
			if u == v {
				continue
			}
			w := graph.Dist(1 + r.Intn(20))
			if err := x.InsertEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
			cur = withEdge(cur, graph.Edge{U: u, V: v, W: w})
			checkAllPairs(t, cur, x)
		}
	}
}

func TestShortcutInsertion(t *testing.T) {
	// A long path, then a shortcut between the ends: the single most
	// drastic distance change possible.
	n := 20
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.Vertex(i), V: graph.Vertex(i + 1), W: 10}
	}
	g := graph.FromEdges(n, edges)
	x := Build(g, pll.Options{})
	if d := x.Query(0, 19); d != 190 {
		t.Fatalf("pre-insert d = %d, want 190", d)
	}
	if err := x.InsertEdge(0, 19, 3); err != nil {
		t.Fatal(err)
	}
	if d := x.Query(0, 19); d != 3 {
		t.Fatalf("post-insert d = %d, want 3", d)
	}
	// Midpoints now route around the cycle.
	cur := withEdge(g, graph.Edge{U: 0, V: 19, W: 3})
	checkAllPairs(t, cur, x)
}

func TestConnectComponents(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3},
		{U: 3, V: 4, W: 4}, {U: 4, V: 5, W: 5},
	})
	x := Build(g, pll.Options{})
	if d := x.Query(0, 5); d != graph.Inf {
		t.Fatal("components connected before insertion")
	}
	if err := x.InsertEdge(2, 3, 7); err != nil {
		t.Fatal(err)
	}
	cur := withEdge(g, graph.Edge{U: 2, V: 3, W: 7})
	checkAllPairs(t, cur, x)
	if d := x.Query(0, 5); d != 2+3+7+4+5 {
		t.Fatalf("bridged distance = %d, want 21", d)
	}
}

// TestInsertDoesNotWriteBaseGraph: a vertex's first insertion appends to
// a copy of its base adjacency row. An isolated vertex is the sharp case:
// its empty row still points into the graph's shared storage, where an
// in-place append would overwrite a neighbor of the next vertex.
func TestInsertDoesNotWriteBaseGraph(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 4}})
	before := g.Edges()
	x := Build(g, pll.Options{})
	inserts := []graph.Edge{{U: 0, V: 3, W: 1}, {U: 0, V: 1, W: 9}, {U: 2, V: 0, W: 2}}
	for _, e := range inserts {
		if err := x.InsertEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(g.Edges(), before) {
		t.Fatalf("base graph changed under inserts: %v, was %v", g.Edges(), before)
	}
	checkAllPairs(t, graph.FromEdges(4, append(before, inserts...)), x)
}

func TestParallelEdgeInsertions(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 10}})
	x := Build(g, pll.Options{})
	// Heavier parallel edge: no distance change.
	if err := x.InsertEdge(0, 1, 50); err != nil {
		t.Fatal(err)
	}
	if d := x.Query(0, 2); d != 20 {
		t.Fatalf("after heavy parallel edge d = %d, want 20", d)
	}
	// Lighter parallel edge: improvement.
	if err := x.InsertEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if d := x.Query(0, 2); d != 12 {
		t.Fatalf("after light parallel edge d = %d, want 12", d)
	}
}

func TestInsertValidation(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}})
	x := Build(g, pll.Options{})
	if err := x.InsertEdge(1, 1, 5); err == nil {
		t.Error("self loop accepted")
	}
	if err := x.InsertEdge(0, 9, 5); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := x.InsertEdge(0, 2, graph.Inf); err == nil {
		t.Error("infinite weight accepted")
	}
}

func TestGrowingStress(t *testing.T) {
	// Grow a sparse power-law graph by 100 edges, spot-checking along
	// the way; a final exhaustive check at the end.
	g := gen.ChungLu(300, 900, 2.2, 55)
	x := Build(g, pll.Options{})
	r := rand.New(rand.NewSource(901))
	cur := g
	n := g.NumVertices()
	for ins := 0; ins < 100; ins++ {
		u := graph.Vertex(r.Intn(n))
		v := graph.Vertex(r.Intn(n))
		if u == v {
			continue
		}
		w := graph.Dist(1 + r.Intn(8))
		if err := x.InsertEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
		cur = withEdge(cur, graph.Edge{U: u, V: v, W: w})
		// Spot check a few pairs.
		for probe := 0; probe < 5; probe++ {
			s := graph.Vertex(r.Intn(n))
			d := graph.Vertex(r.Intn(n))
			if got, want := x.Query(s, d), sssp.Query(cur, s, d); got != want {
				t.Fatalf("after %d insertions: query(%d,%d) = %d, want %d", ins+1, s, d, got, want)
			}
		}
	}
	checkAllPairs(t, cur, x)
	if x.NumEntries() <= 0 {
		t.Fatal("entry accounting broken")
	}
}

func BenchmarkInsertEdge(b *testing.B) {
	g := gen.ChungLu(2000, 8000, 2.2, 56)
	x := Build(g, pll.Options{})
	r := rand.New(rand.NewSource(902))
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.Vertex(r.Intn(n))
		v := graph.Vertex(r.Intn(n))
		if u == v {
			continue
		}
		x.InsertEdge(u, v, graph.Dist(1+r.Intn(8)))
	}
}
