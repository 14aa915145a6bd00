package pll

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/order"
	"parapll/internal/sssp"
)

func randomGraph(r *rand.Rand, n, extra int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1+extra)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: graph.Dist(1 + r.Intn(40)),
		})
	}
	for i := 0; i < extra; i++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(40)),
		})
	}
	return graph.FromEdges(n, edges)
}

// checkAllPairs validates every pair against Dijkstra ground truth.
func checkAllPairs(t *testing.T, g *graph.Graph, query func(s, u graph.Vertex) graph.Dist) {
	t.Helper()
	n := g.NumVertices()
	for s := graph.Vertex(0); int(s) < n; s++ {
		want := sssp.Dijkstra(g, s)
		for u := graph.Vertex(0); int(u) < n; u++ {
			if got := query(s, u); got != want[u] {
				t.Fatalf("query(%d,%d) = %d, want %d", s, u, got, want[u])
			}
		}
	}
}

func TestBuildTriangle(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 7}, {U: 0, V: 2, W: 20}})
	x := Build(g, Options{})
	checkAllPairs(t, g, x.Query)
}

func TestBuildCorrectRandom(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(r, 10+r.Intn(50), 60)
		x := Build(g, Options{})
		checkAllPairs(t, g, x.Query)
	}
}

func TestBuildDisconnected(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3},
		{U: 3, V: 4, W: 4},
	})
	x := Build(g, Options{})
	checkAllPairs(t, g, x.Query)
	if d := x.Query(0, 5); d != graph.Inf {
		t.Fatalf("isolated vertex distance = %d, want Inf", d)
	}
}

func TestBuildAnyOrderCorrect(t *testing.T) {
	// Correctness must not depend on the computing sequence — only label
	// size does (Proposition 2 is about efficiency, not correctness).
	r := rand.New(rand.NewSource(102))
	g := randomGraph(r, 35, 70)
	for seed := uint64(0); seed < 4; seed++ {
		x := Build(g, Options{Order: order.Random(g, seed)})
		checkAllPairs(t, g, x.Query)
	}
}

func TestDegreeOrderPrunesBetterThanRandom(t *testing.T) {
	// Proposition 2's premise on a hub-heavy graph: good order -> smaller
	// index. Use a power-law graph where the effect is strong.
	g := gen.ChungLu(600, 2400, 2.2, 7)
	deg := Build(g, Options{})
	rnd := Build(g, Options{Order: order.Random(g, 1)})
	if deg.NumEntries() >= rnd.NumEntries() {
		t.Errorf("degree order (%d entries) should beat random order (%d entries)",
			deg.NumEntries(), rnd.NumEntries())
	}
}

// TestDegreeOrderBeatsRandomOnRoads holds the degree sequence to the
// same premise on road shapes, where most vertices share a degree and
// the sequence rests on the edge weights. Ties of plain degree broken by
// vertex id, which the generator lays out row by row, sweep the grid and
// lose to a random order; weighted degree wins.
func TestDegreeOrderBeatsRandomOnRoads(t *testing.T) {
	for _, dataset := range []string{"DE-USA", "RI-USA", "HI-USA"} {
		rec, err := gen.FindRecipe(dataset)
		if err != nil {
			t.Fatal(err)
		}
		g := rec.Generate(0.02)
		deg := Build(g, Options{Order: order.Degree(g)})
		rnd := Build(g, Options{Order: order.Random(g, 1)})
		if deg.NumEntries() >= rnd.NumEntries() {
			t.Errorf("%s@0.02 (n=%d): degree order (%d entries) should beat random order (%d entries)",
				dataset, g.NumVertices(), deg.NumEntries(), rnd.NumEntries())
		}
	}
}

// TestWeightedDegreeLNShape holds the default sequence to the labels it
// was chosen for, serial LN under graph.DegreeOrder against LN under
// another sequence, on small graphs of each generator kind.
//
// Against degreeFirst, the paper's degree sort: not larger on the four
// kinds whose weights are uniform on [1, 8], where degree counts a
// weight-8 edge as a weight-1 one, and a tenth smaller on p2p and
// collaboration, which gain 22-31 %. The road bounds were set for the
// static strength sort, which cost +0.05 % (RI-USA@0.05) to +1.18 %
// (HI-USA@0.04) there; the residual sequence reads -4.4 % to -6.9 %.
//
// Against strengthFirst, the static sort the residual sequence
// replaced: each row a little above its measured ratio, Skitter the one
// loss (+1.0 %). At unit weights on RI-USA, against the paper's plain
// degree order (degreeFirst, whose strength ties there): -23 %.
func TestWeightedDegreeLNShape(t *testing.T) {
	if testing.Short() {
		t.Skip("28 serial builds; the shape, not a race, is what is checked")
	}
	for _, c := range []struct {
		dataset  string
		scale    float64
		unit     bool // every weight 1
		against  func(*graph.Graph) []graph.Vertex
		maxRatio float64
	}{
		{"Gnutella", 0.2, false, degreeFirst, 0.9},        // p2p
		{"Wiki-Vote", 0.3, false, degreeFirst, 1},         // social
		{"AS-Relation", 0.05, false, degreeFirst, 1},      // AS
		{"CondMat", 0.1, false, degreeFirst, 0.9},         // collaboration
		{"RI-USA", 0.05, false, degreeFirst, 1.005},       // road
		{"RI-USA", 0.03, false, degreeFirst, 1.005},       // road
		{"HI-USA", 0.04, false, degreeFirst, 1.015},       // road
		{"Gnutella", 0.2, false, strengthFirst, 0.985},    // 0.976
		{"CondMat", 0.1, false, strengthFirst, 0.99},      // 0.984
		{"AS-Relation", 0.05, false, strengthFirst, 0.99}, // 0.981
		{"RI-USA", 0.05, false, strengthFirst, 0.97},      // 0.956
		{"HI-USA", 0.04, false, strengthFirst, 0.94},      // 0.920
		{"Skitter", 0.02, false, strengthFirst, 1.015},    // 1.010
		{"RI-USA", 0.07, true, degreeFirst, 0.8},          // 0.770
	} {
		rec, err := gen.FindRecipe(c.dataset)
		if err != nil {
			t.Fatal(err)
		}
		g := rec.Generate(c.scale)
		if c.unit {
			edges := g.Edges()
			for i := range edges {
				edges[i].W = 1
			}
			g = graph.FromEdges(g.NumVertices(), edges)
		}
		def := numEntries(Labels(g, Options{}))
		other := numEntries(Labels(g, Options{Order: c.against(g)}))
		if ratio := float64(def) / float64(other); ratio > c.maxRatio {
			t.Errorf("%s@%g (n=%d, unit weights %v): LN %.2f under the default sequence, %.2f under the other: ratio %.4f, want at most %g",
				c.dataset, c.scale, g.NumVertices(), c.unit, float64(def)/float64(g.NumVertices()),
				float64(other)/float64(g.NumVertices()), ratio, c.maxRatio)
		}
	}
}

// degreeFirst is the unweighted degree sort: degree descending, the
// strength Σ ⌊2³²/(w+1)⌋ breaking its ties, then id ascending.
func degreeFirst(g *graph.Graph) []graph.Vertex {
	s := strengths(g)
	return sortedBy(g, func(a, b graph.Vertex) int {
		if c := cmp.Compare(g.Degree(b), g.Degree(a)); c != 0 {
			return c
		}
		return cmp.Compare(s[b], s[a])
	})
}

// strengthFirst is the static weighted sort: strength Σ ⌊2³²/(w+1)⌋
// descending, then id ascending.
func strengthFirst(g *graph.Graph) []graph.Vertex {
	s := strengths(g)
	return sortedBy(g, func(a, b graph.Vertex) int { return cmp.Compare(s[b], s[a]) })
}

func strengths(g *graph.Graph) []uint64 {
	s := make([]uint64, g.NumVertices())
	for v := range s {
		_, ws := g.Neighbors(graph.Vertex(v))
		for _, w := range ws {
			s[v] += (1 << 32) / (uint64(w) + 1)
		}
	}
	return s
}

// sortedBy returns g's vertices sorted by key, ties by id ascending.
func sortedBy(g *graph.Graph, key func(a, b graph.Vertex) int) []graph.Vertex {
	ord := make([]graph.Vertex, g.NumVertices())
	for v := range ord {
		ord[v] = graph.Vertex(v)
	}
	slices.SortFunc(ord, func(a, b graph.Vertex) int {
		if c := key(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ord
}

func numEntries(lists [][]label.Entry) (n int) {
	for _, l := range lists {
		n += len(l)
	}
	return n
}

func TestBuildOrderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short order")
		}
	}()
	g := randomGraph(rand.New(rand.NewSource(1)), 5, 5)
	Build(g, Options{Order: []graph.Vertex{0, 1}})
}

func TestTrace(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	g := randomGraph(r, 50, 100)
	var tr Trace
	x := Build(g, Options{Trace: &tr})
	if len(tr.AddedPerRoot) != g.NumVertices() {
		t.Fatalf("trace length %d, want %d", len(tr.AddedPerRoot), g.NumVertices())
	}
	var sum int64
	for _, a := range tr.AddedPerRoot {
		sum += a
	}
	// NewIndexFromLists dedupes, but serial PLL never creates duplicate
	// (vertex,hub) pairs, so totals must match exactly.
	if sum != x.NumEntries() {
		t.Fatalf("trace sum %d != index entries %d", sum, x.NumEntries())
	}
	// First root labels its whole reachable component (nothing to prune).
	if tr.AddedPerRoot[0] <= 1 {
		t.Errorf("first root added %d labels, expected many", tr.AddedPerRoot[0])
	}
	// Pruning must kick in: later roots add fewer labels on average.
	n := len(tr.AddedPerRoot)
	var early, late int64
	for i := 0; i < n/4; i++ {
		early += tr.AddedPerRoot[i]
	}
	for i := 3 * n / 4; i < n; i++ {
		late += tr.AddedPerRoot[i]
	}
	if late > early {
		t.Errorf("late roots added more labels (%d) than early roots (%d); pruning broken?", late, early)
	}
}

func TestIndexSmallerThanAPSP(t *testing.T) {
	// The whole point of pruning: far fewer than n^2/2 entries.
	g := gen.ChungLu(400, 1600, 2.2, 9)
	x := Build(g, Options{})
	full := int64(g.NumVertices()) * int64(g.NumVertices())
	if x.NumEntries()*4 > full {
		t.Errorf("index has %d entries, more than a quarter of n^2 = %d", x.NumEntries(), full)
	}
}

// TestSerialLabelDistancesExact: in the serial build every label entry
// (h, d) ∈ L(v) records the true distance dist(h, v) — serial pruned
// Dijkstra never writes an overestimate (each labeled vertex is reached
// through non-pruned vertices only; see the package doc of core for why
// the parallel version may differ).
func TestSerialLabelDistancesExact(t *testing.T) {
	r := rand.New(rand.NewSource(105))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(r, 40, 80)
		x := Build(g, Options{})
		truth := make([][]graph.Dist, g.NumVertices())
		for s := 0; s < g.NumVertices(); s++ {
			truth[s] = sssp.Dijkstra(g, graph.Vertex(s))
		}
		for v := graph.Vertex(0); int(v) < g.NumVertices(); v++ {
			hubs, dists := x.Label(v, nil, nil)
			for i, h := range hubs {
				if dists[i] != truth[h][v] {
					t.Fatalf("label (%d in L(%d)) records %d, true dist %d",
						h, v, dists[i], truth[h][v])
				}
			}
		}
	}
}

func TestBuildEmptyAndSingle(t *testing.T) {
	if x := Build(graph.FromEdges(0, nil), Options{}); x.NumVertices() != 0 {
		t.Fatal("empty build wrong")
	}
	x := Build(graph.FromEdges(1, nil), Options{})
	if d := x.Query(0, 0); d != 0 {
		t.Fatalf("single vertex self query = %d", d)
	}
}

// unitWeights returns a copy of g whose every edge weighs 1, the graph a
// hop-count index is built over.
func unitWeights(g *graph.Graph) *graph.Graph {
	edges := g.Edges()
	for i := range edges {
		edges[i].W = 1
	}
	return graph.FromEdges(g.NumVertices(), edges)
}

func TestBuildUnweightedHopCounts(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(r, 10+r.Intn(40), 50)
		x := Build(unitWeights(g), Options{})
		n := g.NumVertices()
		for s := graph.Vertex(0); int(s) < n; s++ {
			want := sssp.BFS(g, s)
			for u := graph.Vertex(0); int(u) < n; u++ {
				if got := x.Query(s, u); got != want[u] {
					t.Fatalf("unweighted query(%d,%d) = %d, want %d", s, u, got, want[u])
				}
			}
		}
	}
}

func TestWeightedVsUnweightedDiffer(t *testing.T) {
	// On a weighted triangle where the heavy direct edge is not the
	// shortest path, hop count and distance must disagree.
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 10}, {U: 0, V: 2, W: 100}})
	w := Build(g, Options{})
	u := Build(unitWeights(g), Options{})
	if w.Query(0, 2) != 20 {
		t.Fatalf("weighted d(0,2) = %d, want 20", w.Query(0, 2))
	}
	if u.Query(0, 2) != 1 {
		t.Fatalf("unweighted d(0,2) = %d, want 1 hop", u.Query(0, 2))
	}
}

func BenchmarkBuildSerial(b *testing.B) {
	for _, name := range []string{"Wiki-Vote", "Gnutella"} {
		rec, _ := gen.FindRecipe(name)
		g := rec.Generate(0.05)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Build(g, Options{})
			}
		})
	}
}

func TestBuildOrderValidationDuplicates(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(2)), 5, 5)
	for name, ord := range map[string][]graph.Vertex{
		"duplicate":    {0, 1, 2, 3, 3},
		"out-of-range": {0, 1, 2, 3, 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Build accepted corrupt order", name)
				}
			}()
			Build(g, Options{Order: ord})
		}()
	}
}
