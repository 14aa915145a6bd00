package pll

import (
	"math/rand"
	"reflect"
	"slices"
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
			added, pruned := ps.Run(s.seed, label.Label{Rest: l[s.seed.Hub]}, views[s.view].Neighbors,
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
		ps.Run(Seed{Hub: r, Start: r}, label.Label{Rest: labels[r]}, adj, get, add)
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
				ps.Run(Seed{Hub: r, Start: r}, label.Label{Rest: tc.view(r)}, adj, tc.view, count)
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
// with the saturating add, over a whole label list: rootD[h] is d(root,
// h), graph.Inf when h is not one of the root's hubs. label.Probe's head
// pass and 64-bit scan replaced it and must keep deciding exactly like
// it.
func coveredByReference(labels []label.Entry, rootD []graph.Dist, d graph.Dist) bool {
	for _, e := range labels {
		if t := rootD[e.Hub]; t != graph.Inf && graph.AddDist(t, e.D) <= d {
			return true
		}
	}
	return false
}

// TestCoveredByMatchesReference drives label.Probe's test and the
// reference over random labels in a store with a build-time head, so
// that some hubs are head columns and the rest list entries, with
// distances drawn from the values where 32-bit arithmetic goes wrong —
// Inf on either side, Inf-1, halves whose sum wraps — and over every
// boundary d, including Inf. A list entry may hold Inf on either side:
// the living graph's prune test hands the kernel (hub, QUERY(hub, u)),
// which is Inf when u is unreachable. A head cell holding Inf is an
// empty cell, so what is appended to a head column is finite.
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
	// Each store serves perStore trials, each with its own two vertices
	// (L(root) and L(v) are the two sides); hubs are the first of the
	// order, so the first block holds some of them and the lists the rest.
	const n, hubs, perStore = 400, 96, 200
	probe := label.NewProbe(n)
	var s *label.Store
	var ord []graph.Vertex
	headCols := 0
	// draw is a distance for hub h's entry: finite in a head column.
	draw := func(h graph.Vertex) graph.Dist {
		if slices.Index(ord[:headCols], h) >= 0 {
			return min(pick(), inf-1)
		}
		return pick()
	}
	covered, viaHead := 0, 0
	for trial := 0; trial < 200000; trial++ {
		if trial%perStore == 0 {
			ord = make([]graph.Vertex, n)
			for i, h := range r.Perm(n) {
				ord[i] = graph.Vertex(h)
			}
			s = label.NewStore(n)
			s.UseHead(ord)
			s.BeginRoot(0)
			if headCols, _ = s.Head(); headCols >= hubs {
				t.Fatalf("the head's first block has %d columns: every one of the %d hubs is in it", headCols, hubs)
			}
		}
		root, v := graph.Vertex(2*(trial%perStore)), graph.Vertex(2*(trial%perStore)+1)
		rootD := make([]graph.Dist, n)
		for h := range rootD {
			rootD[h] = inf // most hubs are not the root's
		}
		for _, h := range ord[:hubs] {
			if r.Intn(3) == 0 {
				rootD[h] = draw(h)
				s.Append(root, h, rootD[h])
			}
		}
		labels := make([]label.Entry, r.Intn(5))
		for i := range labels {
			h := ord[r.Intn(hubs)]
			labels[i] = label.Entry{Hub: h, D: draw(h)}
			s.Append(v, h, labels[i].D)
		}
		d := pick()
		probe.Set(s.Label(root))
		rest := s.Snapshot(v)
		got, want := probe.Covers(v, rest, d), coveredByReference(labels, rootD, d)
		if got != want {
			t.Fatalf("Covers(%v, d=%d) = %v, reference over %v says %v", rest, d, got, labels, want)
		}
		if got {
			covered++
			if !probe.Covers(v, nil, d) {
				viaHead++
			}
		}
	}
	if covered < 10000 || covered > 190000 || viaHead < 5000 {
		t.Fatalf("%d of 200000 trials covered, %d only through the head: the generator no longer exercises every outcome", covered, viaHead)
	}
}
