package pll

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/label"
)

// mappedIndex writes x as a PIDM file and opens it, so that its labels
// are read from a file mapping.
func mappedIndex(t *testing.T, x *label.Index) *label.Index {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "base.idx"))
	if err != nil {
		t.Fatal(err)
	}
	if err := x.WriteMmap(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	y, err := label.Open(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { y.Close() })
	return y
}

// TestSearcherScratchFullyReset is the kernel's reuse contract: one
// Searcher alternated across two adjacency views, across rooted and
// seeded (resumed) runs, and between store-backed labels and index-backed
// ones — a mapped base with runs over it, as the living graph's searches
// read them — settles exactly what a fresh Searcher per run settles. Any
// distance, scatter or heap state leaking from one Run into the next
// changes a prune decision or a distance and shows up in the settle log. (The seeded runs open at made-up distances and the base
// indexes the other view, so the labels are not a valid index; only
// reproducibility is asserted.)
func TestSearcherScratchFullyReset(t *testing.T) {
	r := rand.New(rand.NewSource(110))
	const n = 60
	views := [2]*graph.Graph{randomGraph(r, n, 80), randomGraph(r, n, 30)}
	base := mappedIndex(t, Build(views[1], Options{}))
	type step struct {
		view int // 2: view 0 against base and runs
		seed Seed
	}
	var script []step
	for _, v := range r.Perm(n) {
		root := graph.Vertex(v)
		script = append(script,
			step{0, Seed{Hub: root, Start: root}},
			step{1, Seed{Hub: root, Start: root}},
			// Reopen the hub's search mid-graph, as dynamic does after an insert.
			step{r.Intn(3), Seed{Hub: root, Start: graph.Vertex(r.Intn(n)), D0: graph.Dist(1 + r.Intn(5))}})
	}

	// replay runs the script, taking each step's Searcher from next, and
	// returns every settle call and every Run's counters in order.
	replay := func(next func() *Searcher) (log [][3]int64) {
		labels := [3][][]label.Entry{make([][]label.Entry, n), make([][]label.Entry, n), make([][]label.Entry, n)}
		for _, s := range script {
			l := labels[s.view]
			hub, adj := label.Label{Rest: label.ListOf(l[s.seed.Hub])}, views[s.view%2].Neighbors
			if s.view == 2 {
				hub = base.Union(s.seed.Hub, label.ListOf(l[s.seed.Hub]))
			}
			ps := next()
			added, pruned := ps.Run(s.seed, hub, adj,
				func(u graph.Vertex) label.List { return label.ListOf(l[u]) },
				func(u graph.Vertex, e label.Entry) {
					l[u] = append(l[u], e)
					log = append(log, [3]int64{int64(u), int64(e.Hub), int64(e.D)})
				})
			log = append(log, [3]int64{added, pruned, ps.LastWork()})
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
// is a full Dijkstra through the relax loop, nor index-backed: searches
// reopened at a neighbour of their hub, as the living graph's are, over
// a mapped base holding the first half of the roots' labels and a run of
// (u, 0) at every vertex u. There one reused Searcher settles what a
// fresh one per search does, which a hub entry left in the probe's
// scatter array would change: it prunes every later search at that hub.
func TestSearcherRunZeroAllocs(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(111)), 200, 400)
	n := g.NumVertices()
	labels := make([][]label.Entry, n)
	ps := NewSearcher(n)
	adj := g.Neighbors
	get := func(u graph.Vertex) label.List { return label.ListOf(labels[u]) }
	add := func(u graph.Vertex, e label.Entry) { labels[u] = append(labels[u], e) }
	var base *label.Index
	for r := graph.Vertex(0); int(r) < n; r++ {
		if int(r) == n/2 {
			base = mappedIndex(t, label.NewIndexFromLists(labels))
		}
		ps.Run(Seed{Hub: r, Start: r}, label.Label{Rest: label.ListOf(labels[r])}, adj, get, add)
	}
	runs := make([][]label.Entry, n)
	seeds := make([]Seed, n)
	for v := range runs {
		runs[v] = []label.Entry{{Hub: graph.Vertex(v), D: 0}}
		ns, ws := g.Neighbors(graph.Vertex(v))
		seeds[v] = Seed{Hub: graph.Vertex(v), Start: ns[0], D0: ws[0]}
	}

	var settled int64
	none := func(graph.Vertex) label.List { return label.List{} }
	count := func(graph.Vertex, label.Entry) { settled++ }
	rooted := func(view func(graph.Vertex) label.List) func(*Searcher) {
		return func(ps *Searcher) {
			for r := graph.Vertex(0); int(r) < n; r++ {
				ps.Run(Seed{Hub: r, Start: r}, label.Label{Rest: view(r)}, adj, view, count)
			}
		}
	}
	run := func(u graph.Vertex) label.List { return label.ListOf(runs[u]) }
	indexed := func(ps *Searcher) {
		for r := graph.Vertex(0); int(r) < n; r++ {
			ps.Run(seeds[r], base.Union(r, label.ListOf(runs[r])), adj, run, count)
		}
	}
	for r := graph.Vertex(0); int(r) < n; r++ {
		NewSearcher(n).Run(seeds[r], base.Union(r, label.ListOf(runs[r])), adj, run, count)
	}
	fresh := settled
	if fresh == 0 || fresh >= int64(n)*int64(n) {
		t.Fatalf("index-backed: fresh Searchers settle %d vertices in a sweep; want some pruned and some not", fresh)
	}
	for _, tc := range []struct {
		name    string
		sweep   func(*Searcher)
		settled int64 // per sweep: the graph is connected, so unpruned searches reach everything
	}{
		{"labelled", rooted(get), 0},
		{"unlabelled", rooted(none), int64(n) * int64(n)},
		{"index-backed", indexed, fresh},
	} {
		settled = 0
		allocs := testing.AllocsPerRun(10, func() { tc.sweep(ps) })
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
// distances drawn from the values where the arithmetic goes wrong: a
// cell at 0, 1, 253 or 254, the largest it holds; 255 and 256, which
// overflow a head hub's entry into the list, on either side; the lane
// test's limit 0x3FFF and its neighbours; Inf on either side, Inf-1 and
// halves whose sum wraps. The bound d is drawn from the same values and
// from sums of two of them, off by one either way, so that it meets a
// cell plus a row value exactly — below and above 0x3FFF, where the lane
// test hands over to the per-cell one — and includes Inf. A list entry
// may hold Inf on either side; an absent cell meets finite and Inf rows.
// No caller hands the kernel one any more — the living graph's searches
// read their runs through the index-backed probe
// (label.TestProbeIndexMatchesReference) — but the scan's 64-bit sums
// must decide it as the saturating add would.
func TestCoveredByMatchesReference(t *testing.T) {
	const inf = graph.Inf
	edge := []graph.Dist{0, 1, 2, 7, 253, 254, 255, 256, 0x3FFE, 0x3FFF, 0x4000, inf / 2, inf/2 + 1, inf - 2, inf - 1, inf}
	r := rand.New(rand.NewSource(17))
	pick := func() graph.Dist {
		if r.Intn(4) == 0 {
			return graph.Dist(r.Uint32())
		}
		return edge[r.Intn(len(edge))]
	}
	bound := func() graph.Dist {
		if r.Intn(2) == 0 {
			return pick()
		}
		d := graph.AddDist(edge[r.Intn(len(edge))], edge[r.Intn(len(edge))])
		switch r.Intn(3) { // the sum, one less or one more
		case 1:
			d -= min(d, 1)
		case 2:
			d += min(inf-d, 1)
		}
		return d
	}
	// Each store serves perStore trials, each with its own two vertices
	// (L(root) and L(v) are the two sides); hubs are the first of the
	// order, so the first block holds some of them and the lists the rest.
	const n, hubs, perStore = 400, 96, 200
	probe := label.NewProbe(n)
	var s *label.Store
	var ord []graph.Vertex
	covered, viaHead, viaLanes, viaList := 0, 0, 0, 0
	for trial := 0; trial < 200000; trial++ {
		if trial%perStore == 0 {
			ord = make([]graph.Vertex, n)
			for i, h := range r.Perm(n) {
				ord[i] = graph.Vertex(h)
			}
			s = label.NewStore(n)
			s.UseHead(ord)
			s.BeginRoot(0)
			if headCols, _ := s.Head(); headCols >= hubs {
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
				rootD[h] = pick()
				s.Append(root, h, rootD[h])
			}
		}
		labels := make([]label.Entry, r.Intn(5))
		for i := range labels {
			h := ord[r.Intn(hubs)]
			labels[i] = label.Entry{Hub: h, D: pick()}
			s.Append(v, h, labels[i].D)
		}
		d := bound()
		probe.Set(s.Label(root))
		rest := s.Snapshot(v)
		got, want := probe.Covers(v, rest, d), coveredByReference(labels, rootD, d)
		if got != want {
			t.Fatalf("Covers(%v, d=%d) = %v, reference over %v says %v", rest.AppendTo(nil), d, got, labels, want)
		}
		if got {
			covered++
			switch {
			case !probe.Covers(v, label.List{}, d):
				viaList++
			case d <= 0x3FFF:
				viaLanes++
				fallthrough
			default:
				viaHead++
			}
		}
	}
	if covered < 10000 || covered > 190000 || viaHead < 5000 || viaLanes < 1000 || viaList < 5000 {
		t.Fatalf("%d of 200000 trials covered, %d by v's cells (%d of them in the lane test), %d only through v's list: the generator no longer exercises every outcome", covered, viaHead, viaLanes, viaList)
	}
	t.Logf("%d of 200000 trials covered, %d by v's cells (%d of them in the lane test), %d only through v's list", covered, viaHead, viaLanes, viaList)
}
