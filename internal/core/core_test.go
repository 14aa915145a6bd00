package core

import (
	"math/rand"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/order"
	"parapll/internal/pll"
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

func checkAllPairs(t *testing.T, g *graph.Graph, x *label.Index) {
	t.Helper()
	n := g.NumVertices()
	for s := graph.Vertex(0); int(s) < n; s++ {
		want := sssp.Dijkstra(g, s)
		for u := graph.Vertex(0); int(u) < n; u++ {
			if got := x.Query(s, u); got != want[u] {
				t.Fatalf("query(%d,%d) = %d, want %d", s, u, got, want[u])
			}
		}
	}
}

// TestCorrectAcrossPoliciesAndThreads is the paper's Proposition 1 as a
// test: any thread count, any policy, the index answers every pair exactly.
func TestCorrectAcrossPoliciesAndThreads(t *testing.T) {
	r := rand.New(rand.NewSource(200))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(r, 20+r.Intn(40), 80)
		for _, policy := range []Policy{Static, Dynamic} {
			for _, threads := range []int{1, 2, 4, 12} {
				x := Build(g, Options{Threads: threads, Policy: policy})
				checkAllPairs(t, g, x)
			}
		}
	}
}

func TestCorrectWithRaceDetector(t *testing.T) {
	// One bigger run designed to maximize concurrent append/read overlap;
	// meaningful mostly under -race.
	g := gen.ChungLu(800, 3200, 2.2, 3)
	x := Build(g, Options{Threads: 8, Policy: Dynamic})
	r := rand.New(rand.NewSource(1))
	for q := 0; q < 50; q++ {
		s := graph.Vertex(r.Intn(g.NumVertices()))
		want := sssp.Dijkstra(g, s)
		u := graph.Vertex(r.Intn(g.NumVertices()))
		if got := x.Query(s, u); got != want[u] {
			t.Fatalf("query(%d,%d) = %d, want %d", s, u, got, want[u])
		}
	}
}

// hidingStore wraps a label.Store but adversarially hides a random suffix
// of every list it reads, and half the time a search's whole head row,
// simulating arbitrarily delayed label visibility — the exact situation
// Proposition 1 covers (a thread may miss labels other threads are
// writing, or a cluster node may not have synchronized yet). Hiding
// labels weakens pruning but must never break query correctness.
type hidingStore struct {
	*label.Store
	r *rand.Rand
}

func (h *hidingStore) Snapshot(v graph.Vertex) label.List {
	return h.prefix(h.Store.Snapshot(v))
}

func (h *hidingStore) Label(v graph.Vertex) label.Label {
	l := h.Store.Label(v)
	if h.r.Intn(2) == 0 {
		l = label.Label{Rest: l.Rest}
	}
	l.Rest = h.prefix(l.Rest)
	return l
}

// prefix returns a random prefix of l.
func (h *hidingStore) prefix(l label.List) label.List {
	return label.ListOf(l.AppendTo(nil)[:h.r.Intn(l.Len()+1)])
}

// TestDelayedVisibilityCorrect is the paper's Proposition 1 in its
// sharpest form: even if every prune query sees only an arbitrary stale
// prefix of the true label set, the final index answers every pair
// exactly. Runs single-threaded so the adversarial schedule — not
// goroutine timing — is the only source of label hiding.
func TestDelayedVisibilityCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(r, 40+r.Intn(40), 120)
		store := &hidingStore{Store: label.NewStore(g.NumVertices()), r: rand.New(rand.NewSource(int64(trial)))}
		BuildInto(g, store, Options{Threads: 1, Policy: Dynamic})
		x := label.NewIndex(store.Store)
		checkAllPairs(t, g, x)
		// Hidden labels must mean redundancy, never loss: at least as many
		// entries as the fully-informed serial build.
		serial := pll.Build(g, pll.Options{})
		if x.NumEntries() < serial.NumEntries() {
			t.Fatalf("blinded build has %d entries, fewer than serial %d — pruning was unsound",
				x.NumEntries(), serial.NumEntries())
		}
	}
}

func TestSingleThreadMatchesSerial(t *testing.T) {
	// With one thread ParaPLL degenerates to the serial algorithm
	// (paper Proof 1, Condition 1): identical labels, not just answers.
	r := rand.New(rand.NewSource(202))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(r, 50, 100)
		serial := pll.Build(g, pll.Options{})
		for _, policy := range []Policy{Static, Dynamic} {
			par := Build(g, Options{Threads: 1, Policy: policy})
			if par.NumEntries() != serial.NumEntries() {
				t.Fatalf("%v 1-thread entries %d != serial %d", policy, par.NumEntries(), serial.NumEntries())
			}
		}
	}
}

// TestZeroWeightsAgreeWithDijkstra runs every search kind over a graph
// with zero-weight edges, where pushes land at the key just popped: the
// serial and one-thread builds and both point-to-point searches must
// answer every pair as Dijkstra does.
func TestZeroWeightsAgreeWithDijkstra(t *testing.T) {
	const n = 150
	r := rand.New(rand.NewSource(36))
	edges := make([]graph.Edge, 0, 3*n)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: graph.Dist(r.Intn(3) * r.Intn(9))})
	}
	for i := 0; i < 2*n; i++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(r.Intn(3) * r.Intn(9))})
	}
	g := graph.FromEdges(n, edges)
	serial, oneThread := pll.Build(g, pll.Options{}), Build(g, Options{Threads: 1})
	for s := graph.Vertex(0); int(s) < n; s++ {
		want := sssp.Dijkstra(g, s)
		for u := graph.Vertex(0); int(u) < n; u++ {
			for name, got := range map[string]graph.Dist{
				"pll.Build":      serial.Query(s, u),
				"Build/1 thread": oneThread.Query(s, u),
				"sssp.Query":     sssp.Query(g, s, u),
				"sssp.BiQuery":   sssp.BiQuery(g, s, u),
			} {
				if got != want[u] {
					t.Fatalf("%s: d(%d,%d) = %d, want %d", name, s, u, got, want[u])
				}
			}
		}
	}
}

func TestCustomOrder(t *testing.T) {
	r := rand.New(rand.NewSource(203))
	g := randomGraph(r, 40, 80)
	x := Build(g, Options{Threads: 4, Policy: Dynamic, Order: order.Random(g, 9)})
	checkAllPairs(t, g, x)
}

func TestBadOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}})
	Build(g, Options{Order: []graph.Vertex{0}})
}

func TestTracePositions(t *testing.T) {
	r := rand.New(rand.NewSource(204))
	g := randomGraph(r, 80, 160)
	var tr pll.Trace
	x := Build(g, Options{Threads: 4, Policy: Dynamic, Trace: &tr})
	if len(tr.AddedPerRoot) != g.NumVertices() {
		t.Fatalf("trace len %d, want %d", len(tr.AddedPerRoot), g.NumVertices())
	}
	var sum int64
	for _, a := range tr.AddedPerRoot {
		sum += a
	}
	// Parallel runs may create duplicate (vertex,hub) entries that the
	// final index dedupes, so sum >= final entries.
	if sum < x.NumEntries() {
		t.Fatalf("trace total %d < index entries %d", sum, x.NumEntries())
	}
}

func TestDefaultThreads(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(207)), 30, 60)
	x := Build(g, Options{}) // Threads <= 0: GOMAXPROCS
	checkAllPairs(t, g, x)
}

func TestBuildStatsAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(209))
	g := randomGraph(r, 60, 120)
	_, bs := BuildWithStats(g, Options{Threads: 4, Policy: Dynamic})
	if len(bs.PerWorkerWork) != 4 {
		t.Fatalf("PerWorkerWork has %d entries, want 4", len(bs.PerWorkerWork))
	}
	if bs.TotalWork() <= 0 {
		t.Fatal("total work not positive")
	}
	sp := bs.ProjectedSpeedup()
	if sp < 1 || sp > 4 {
		t.Fatalf("projected speedup %v out of [1,4]", sp)
	}
	// Serial run: all work on worker 0, projected speedup exactly 1.
	_, bs1 := BuildWithStats(g, Options{Threads: 1})
	if bs1.ProjectedSpeedup() != 1 {
		t.Fatalf("1-thread projected speedup = %v", bs1.ProjectedSpeedup())
	}
	// Work must match the trace's per-root accounting.
	var tr pll.Trace
	_, bs2 := BuildWithStats(g, Options{Threads: 3, Policy: Dynamic, Trace: &tr})
	var traceWork int64
	for _, w := range tr.WorkPerRoot {
		traceWork += w
	}
	if traceWork != bs2.TotalWork() {
		t.Fatalf("trace work %d != stats work %d", traceWork, bs2.TotalWork())
	}
	if tr.TotalWork() != traceWork {
		t.Fatal("Trace.TotalWork disagrees with manual sum")
	}
}

// TestBuildStatsCountsWideEntries: a graph whose distances all fit a
// list word reports no wide entries; the same graph with its weights
// scaled past a word's distance bits (2^26 on 60 vertices) reports some,
// and answers every pair as Dijkstra does.
func TestBuildStatsCountsWideEntries(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(210)), 60, 120)
	if _, bs := BuildWithStats(g, Options{Threads: 2}); bs.Wide() != 0 {
		t.Fatalf("weights 1-40: %d wide entries, want 0", bs.Wide())
	}
	edges := g.Edges()
	for i := range edges {
		edges[i].W <<= 22
	}
	wide := graph.FromEdges(g.NumVertices(), edges)
	x, bs := BuildWithStats(wide, Options{Threads: 2})
	if bs.Wide() == 0 {
		t.Fatal("weights x2^22: no wide entries")
	}
	checkAllPairs(t, wide, x)
}

func TestEmptyBuildStats(t *testing.T) {
	g := graph.FromEdges(0, nil)
	_, bs := BuildWithStats(g, Options{Threads: 2})
	if bs.ProjectedSpeedup() != 1 {
		t.Fatalf("empty-graph projected speedup = %v, want 1", bs.ProjectedSpeedup())
	}
}

func TestPolicyString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Policy(9).String() != "unknown" {
		t.Fatal("Policy.String wrong")
	}
}

func TestOnRealisticShapes(t *testing.T) {
	// Road and power-law graphs at small scale, all policies.
	for _, name := range []string{"DE-USA", "Wiki-Vote"} {
		rec, err := gen.FindRecipe(name)
		if err != nil {
			t.Fatal(err)
		}
		g := rec.Generate(0.01)
		r := rand.New(rand.NewSource(1))
		for _, policy := range []Policy{Static, Dynamic} {
			x := Build(g, Options{Threads: 6, Policy: policy})
			for q := 0; q < 10; q++ {
				s := graph.Vertex(r.Intn(g.NumVertices()))
				want := sssp.Dijkstra(g, s)
				for probe := 0; probe < 20; probe++ {
					u := graph.Vertex(r.Intn(g.NumVertices()))
					if got := x.Query(s, u); got != want[u] {
						t.Fatalf("%s/%v: query(%d,%d) = %d, want %d", name, policy, s, u, got, want[u])
					}
				}
			}
		}
	}
}
