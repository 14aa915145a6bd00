package directed

import (
	"math/rand"
	"testing"

	"parapll/internal/graph"
)

func randomDigraph(r *rand.Rand, n, m int) *Digraph {
	arcs := make([]Arc, 0, m+n)
	// A random out-tree keeps most vertices reachable from vertex 0.
	for v := 1; v < n; v++ {
		arcs = append(arcs, Arc{From: graph.Vertex(r.Intn(v)), To: graph.Vertex(v), W: graph.Dist(1 + r.Intn(20))})
	}
	for i := 0; i < m; i++ {
		arcs = append(arcs, Arc{
			From: graph.Vertex(r.Intn(n)), To: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(20)),
		})
	}
	return FromArcs(n, arcs)
}

func TestFromArcsNormalization(t *testing.T) {
	g := FromArcs(3, []Arc{
		{From: 0, To: 1, W: 9},
		{From: 0, To: 1, W: 4}, // duplicate keeps min
		{From: 1, To: 1, W: 2}, // self loop dropped
		{From: 1, To: 0, W: 7}, // reverse is a distinct arc
	})
	if g.NumArcs() != 2 {
		t.Fatalf("arcs = %d, want 2", g.NumArcs())
	}
	ns, ws := g.Out(0)
	if len(ns) != 1 || ns[0] != 1 || ws[0] != 4 {
		t.Fatalf("out(0) = %v %v", ns, ws)
	}
	ns, ws = g.In(0)
	if len(ns) != 1 || ns[0] != 1 || ws[0] != 7 {
		t.Fatalf("in(0) = %v %v", ns, ws)
	}
}

func TestFromArcsPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"range": func() { FromArcs(2, []Arc{{From: 0, To: 5, W: 1}}) },
		"inf":   func() { FromArcs(2, []Arc{{From: 0, To: 1, W: graph.Inf}}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
}

func TestDirectedIndexExact(t *testing.T) {
	r := rand.New(rand.NewSource(1000))
	for trial := 0; trial < 10; trial++ {
		n := 10 + r.Intn(40)
		g := randomDigraph(r, n, 4*n)
		x := Build(g, Options{})
		for s := graph.Vertex(0); int(s) < n; s++ {
			want := Dijkstra(g, s)
			for u := graph.Vertex(0); int(u) < n; u++ {
				if got := x.Query(s, u); got != want[u] {
					t.Fatalf("trial %d: query(%d->%d) = %d, want %d", trial, s, u, got, want[u])
				}
			}
		}
	}
}

func TestDirectedAsymmetry(t *testing.T) {
	// One-way chain: 0 -> 1 -> 2; backwards unreachable.
	g := FromArcs(3, []Arc{{From: 0, To: 1, W: 4}, {From: 1, To: 2, W: 5}})
	x := Build(g, Options{})
	if d := x.Query(0, 2); d != 9 {
		t.Fatalf("forward = %d, want 9", d)
	}
	if d := x.Query(2, 0); d != graph.Inf {
		t.Fatalf("backward = %d, want Inf", d)
	}
	if d := x.Query(1, 1); d != 0 {
		t.Fatalf("self = %d", d)
	}
}

func TestDirectedCycleShortcut(t *testing.T) {
	// Directed cycle with a heavy shortcut: query must route the right way.
	g := FromArcs(4, []Arc{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1},
		{From: 2, To: 3, W: 1}, {From: 3, To: 0, W: 1},
		{From: 0, To: 3, W: 10},
	})
	x := Build(g, Options{})
	if d := x.Query(0, 3); d != 3 {
		t.Fatalf("d(0->3) = %d, want 3 (around the cycle)", d)
	}
	if d := x.Query(3, 0); d != 1 {
		t.Fatalf("d(3->0) = %d, want 1", d)
	}
}

// badOrders are computing sequences over 3 vertices that are not
// permutations; the duplicate would silently drop root 2.
var badOrders = map[string][]graph.Vertex{
	"short":        {0},
	"duplicate":    {0, 0, 1},
	"out-of-range": {0, 1, 3},
}

func expectOrderPanic(t *testing.T, name string, build func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: build accepted corrupt order", name)
		}
	}()
	build()
}

func TestDirectedOrderValidation(t *testing.T) {
	g := FromArcs(3, []Arc{{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1}})
	for name, ord := range badOrders {
		expectOrderPanic(t, name, func() { Build(g, Options{Order: ord}) })
	}
}

func TestDirectedDegreeOrder(t *testing.T) {
	// Star with arcs into vertex 0: highest total degree first.
	g := FromArcs(5, []Arc{
		{From: 1, To: 0, W: 1}, {From: 2, To: 0, W: 1},
		{From: 3, To: 0, W: 1}, {From: 0, To: 4, W: 1},
	})
	ord := DegreeOrder(g)
	if ord[0] != 0 {
		t.Fatalf("order[0] = %d, want 0", ord[0])
	}
	seen := make([]bool, 5)
	for _, v := range ord {
		if seen[v] {
			t.Fatal("duplicate in order")
		}
		seen[v] = true
	}
}

func TestDirectedStats(t *testing.T) {
	g := randomDigraph(rand.New(rand.NewSource(1001)), 30, 90)
	x := Build(g, Options{})
	if x.NumEntries() < int64(g.NumVertices()) {
		t.Fatalf("entries = %d, want >= n", x.NumEntries())
	}
	if x.AvgLabelSize() <= 0 {
		t.Fatal("avg label size not positive")
	}
	empty := Build(FromArcs(0, nil), Options{})
	if empty.AvgLabelSize() != 0 {
		t.Fatal("empty index stats wrong")
	}
}

func TestDirectedPruningShrinksIndex(t *testing.T) {
	// Sanity: the index is much smaller than n^2 entries on a graph with
	// a strong hub (all shortest paths pass vertex 0).
	n := 200
	r := rand.New(rand.NewSource(1002))
	arcs := make([]Arc, 0, 2*n)
	for v := 1; v < n; v++ {
		arcs = append(arcs, Arc{From: 0, To: graph.Vertex(v), W: graph.Dist(1 + r.Intn(4))})
		arcs = append(arcs, Arc{From: graph.Vertex(v), To: 0, W: graph.Dist(1 + r.Intn(4))})
	}
	g := FromArcs(n, arcs)
	x := Build(g, Options{})
	if x.NumEntries() > int64(6*n) {
		t.Fatalf("hub graph index has %d entries, expected ~4n", x.NumEntries())
	}
}
