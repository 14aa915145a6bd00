package pll

import (
	"math/rand"
	"reflect"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/label"
)

// TestSearcherScratchFullyReset is the kernel's reuse contract: one
// Searcher alternated across two adjacency views, and across rooted and
// seeded (resumed) runs, settles exactly what a fresh Searcher per run
// settles. Any distance, predecessor, scatter or heap state leaking from
// one Run into the next changes a prune decision or a predecessor and
// shows up in the settle log. (The seeded runs open at made-up distances,
// so the labels are not a valid index; only reproducibility is asserted.)
func TestSearcherScratchFullyReset(t *testing.T) {
	r := rand.New(rand.NewSource(110))
	const n = 60
	views := [2]*graph.Graph{randomGraph(r, n, 80), randomGraph(r, n, 30)}
	type step struct {
		view int
		seed Seed
	}
	var script []step
	for _, v := range r.Perm(n) {
		root := graph.Vertex(v)
		script = append(script,
			step{0, Seed{Hub: root, Start: root}},
			step{1, Seed{Hub: root, Start: root}},
			// Reopen the hub's search mid-graph, as dynamic does after an insert.
			step{r.Intn(2), Seed{Hub: root, Start: graph.Vertex(r.Intn(n)), D0: graph.Dist(1 + r.Intn(5))}})
	}

	// replay runs the script, taking each step's Searcher from next, and
	// returns every settle call and every Run's counters in order.
	replay := func(next func() *Searcher) (log [][4]int64) {
		labels := [2][][]label.Entry{make([][]label.Entry, n), make([][]label.Entry, n)}
		for _, s := range script {
			l := labels[s.view]
			ps := next()
			added, pruned := ps.Run(s.seed, l[s.seed.Hub], views[s.view].Neighbors,
				func(u graph.Vertex) []label.Entry { return l[u] },
				func(u, pred graph.Vertex, e label.Entry) {
					l[u] = append(l[u], e)
					log = append(log, [4]int64{int64(u), int64(pred), int64(e.Hub), int64(e.D)})
				})
			log = append(log, [4]int64{added, pruned, ps.LastWork(), -1})
		}
		return log
	}
	shared := NewSearcher(n)
	got := replay(func() *Searcher { return shared })
	want := replay(func() *Searcher { return NewSearcher(n) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a reused Searcher diverged from fresh Searchers (%d vs %d log rows)", len(got), len(want))
	}
}

// TestSearcherRunZeroAllocs: with the hooks formed once outside the loop,
// Run itself allocates nothing — neither on a fully labelled graph, where
// every search is pruned at its root, nor on an unlabelled one, where it
// is a full Dijkstra through the relax loop.
func TestSearcherRunZeroAllocs(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(111)), 200, 400)
	n := g.NumVertices()
	labels := make([][]label.Entry, n)
	ps := NewSearcher(n)
	adj := g.Neighbors
	get := func(u graph.Vertex) []label.Entry { return labels[u] }
	add := func(u, _ graph.Vertex, e label.Entry) { labels[u] = append(labels[u], e) }
	for r := graph.Vertex(0); int(r) < n; r++ {
		ps.Run(Seed{Hub: r, Start: r}, labels[r], adj, get, add)
	}

	var settled int64
	none := func(graph.Vertex) []label.Entry { return nil }
	count := func(_, _ graph.Vertex, _ label.Entry) { settled++ }
	for _, tc := range []struct {
		name    string
		view    func(graph.Vertex) []label.Entry
		settled int64 // per sweep: the graph is connected, so unpruned searches reach everything
	}{{"labelled", get, 0}, {"unlabelled", none, int64(n) * int64(n)}} {
		settled = 0
		allocs := testing.AllocsPerRun(10, func() {
			for r := graph.Vertex(0); int(r) < n; r++ {
				ps.Run(Seed{Hub: r, Start: r}, tc.view(r), adj, tc.view, count)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Run allocated %.1f times per sweep, want 0", tc.name, allocs)
		}
		if want := 11 * tc.settled; settled != want { // AllocsPerRun adds one warm-up sweep
			t.Errorf("%s: settled %d vertices, want %d", tc.name, settled, want)
		}
	}
}

// coveredByReference is the prune predicate as Algorithm 1 states it,
// with the saturating add: the branch-per-case form CoveredBy's 64-bit
// scan replaced and must keep deciding exactly like.
func coveredByReference(labels []label.Entry, tmp []graph.Dist, d graph.Dist) bool {
	for _, e := range labels {
		if t := tmp[e.Hub]; t != graph.Inf && graph.AddDist(t, e.D) <= d {
			return true
		}
	}
	return false
}

// TestCoveredByMatchesReference drives the scan and the reference over
// random labels and scatter arrays drawn from the values where 32-bit
// arithmetic goes wrong — Inf on either side, Inf-1, halves whose sum
// wraps — and over every boundary d, including Inf.
func TestCoveredByMatchesReference(t *testing.T) {
	const inf = graph.Inf
	edge := []graph.Dist{0, 1, 2, 7, inf / 2, inf/2 + 1, inf - 2, inf - 1, inf}
	r := rand.New(rand.NewSource(17))
	pick := func() graph.Dist {
		if r.Intn(4) == 0 {
			return graph.Dist(r.Uint32())
		}
		return edge[r.Intn(len(edge))]
	}
	const hubs = 8
	covered := 0
	for trial := 0; trial < 200000; trial++ {
		tmp := make([]graph.Dist, hubs)
		for h := range tmp {
			tmp[h] = inf // most hubs are not the root's
			if r.Intn(3) == 0 {
				tmp[h] = pick()
			}
		}
		labels := make([]label.Entry, r.Intn(4))
		for i := range labels {
			labels[i] = label.Entry{Hub: graph.Vertex(r.Intn(hubs)), D: pick()}
		}
		d := pick()
		got, want := CoveredBy(labels, tmp, d), coveredByReference(labels, tmp, d)
		if got != want {
			t.Fatalf("CoveredBy(%v, tmp=%v, d=%d) = %v, reference says %v", labels, tmp, d, got, want)
		}
		if got {
			covered++
		}
	}
	if covered < 10000 || covered > 190000 {
		t.Fatalf("%d of 200000 trials covered: the generator no longer exercises both outcomes", covered)
	}
}
