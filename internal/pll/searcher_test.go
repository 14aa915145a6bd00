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
	for _, lazy := range []bool{false, true} {
		shared := NewSearcher(n, lazy)
		got := replay(func() *Searcher { return shared })
		want := replay(func() *Searcher { return NewSearcher(n, lazy) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lazy=%v: a reused Searcher diverged from fresh Searchers (%d vs %d log rows)", lazy, len(got), len(want))
		}
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
	ps := NewSearcher(n, false)
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
