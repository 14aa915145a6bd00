package core

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/order"
	"parapll/internal/pll"
	"parapll/internal/sssp"
)

// uniformGraph is randomGraph with unit weights: the BFS-like regime
// where the batched engine's frontier rounds line up with hop counts.
func uniformGraph(r *rand.Rand, n, extra int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1+extra)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: 1,
		})
	}
	for i := 0; i < extra; i++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: 1,
		})
	}
	return graph.FromEdges(n, edges)
}

// disconnectedGraph builds two random components with no edges between
// them, so batched frontiers drain with most of the graph untouched.
func disconnectedGraph(r *rand.Rand, n1, n2, extra int) *graph.Graph {
	n := n1 + n2
	edges := make([]graph.Edge, 0, n-2+2*extra)
	addComponent := func(lo, size int) {
		for v := 1; v < size; v++ {
			edges = append(edges, graph.Edge{
				U: graph.Vertex(lo + r.Intn(v)), V: graph.Vertex(lo + v), W: graph.Dist(1 + r.Intn(40)),
			})
		}
		for i := 0; i < extra; i++ {
			edges = append(edges, graph.Edge{
				U: graph.Vertex(lo + r.Intn(size)), V: graph.Vertex(lo + r.Intn(size)), W: graph.Dist(1 + r.Intn(40)),
			})
		}
	}
	addComponent(0, n1)
	addComponent(n1, n2)
	return graph.FromEdges(n, edges)
}

// engineConfigs is the cross-product the equivalence tests sweep: the
// per-root engine and the batched engine at batch sizes that exercise
// the degenerate single-root case, a mid ramp, and a non-power-of-two.
func engineConfigs() []struct {
	name string
	eng  Engine
} {
	return []struct {
		name string
		eng  Engine
	}{
		{"perroot", PerRoot{}},
		{"batched-1", Batched{BatchSize: 1}},
		{"batched-4", Batched{BatchSize: 4}},
		{"batched-33", Batched{BatchSize: 33}},
	}
}

// TestEnginesEquivalentWeighted is the tentpole's contract: on random
// weighted graphs, every engine × thread-count × policy combination
// answers every pair exactly (and therefore identically to each other).
func TestEnginesEquivalentWeighted(t *testing.T) {
	r := rand.New(rand.NewSource(300))
	for trial := 0; trial < 4; trial++ {
		g := randomGraph(r, 20+r.Intn(40), 80)
		for _, ec := range engineConfigs() {
			for _, threads := range []int{1, 4} {
				for _, policy := range []Policy{Static, Dynamic} {
					x := Build(g, Options{Threads: threads, Policy: policy, Engine: ec.eng})
					checkAllPairs(t, g, x)
				}
			}
		}
	}
}

// TestEnginesEquivalentUniform repeats the sweep on unit-weight graphs,
// where frontier rounds coincide with hop counts and ties abound.
func TestEnginesEquivalentUniform(t *testing.T) {
	r := rand.New(rand.NewSource(301))
	for trial := 0; trial < 3; trial++ {
		g := uniformGraph(r, 30+r.Intn(30), 120)
		for _, ec := range engineConfigs() {
			x := Build(g, Options{Threads: 4, Policy: Dynamic, Engine: ec.eng})
			checkAllPairs(t, g, x)
		}
	}
}

// TestEnginesEquivalentDisconnected checks cross-component queries
// return Inf and the batched reset logic survives mostly-unreached
// distance rows.
func TestEnginesEquivalentDisconnected(t *testing.T) {
	r := rand.New(rand.NewSource(302))
	for trial := 0; trial < 3; trial++ {
		g := disconnectedGraph(r, 15+r.Intn(15), 10+r.Intn(15), 40)
		for _, ec := range engineConfigs() {
			x := Build(g, Options{Threads: 3, Policy: Static, Engine: ec.eng})
			checkAllPairs(t, g, x)
		}
	}
}

// TestBatchedNoUnderestimates is the cluster sync test's soundness
// invariant applied to the batched engine: every committed entry
// (v, hub, d) must satisfy d >= true d(hub, v) — labels are real path
// lengths, and redundancy (overestimates the QUERY minimum ignores) is
// the only divergence parallelism may introduce.
func TestBatchedNoUnderestimates(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	for trial := 0; trial < 3; trial++ {
		g := randomGraph(r, 40+r.Intn(30), 120)
		x := Build(g, Options{Threads: 4, Policy: Dynamic, Engine: Batched{BatchSize: 8}})
		// The serial index answers exactly (checked everywhere else), so
		// its queries are the ground-truth distances.
		serial := pll.Build(g, pll.Options{})
		for v := graph.Vertex(0); int(v) < g.NumVertices(); v++ {
			hubs, dists := x.Label(v, nil, nil)
			for i, h := range hubs {
				if want := serial.Query(graph.Vertex(h), v); dists[i] < want {
					t.Fatalf("label (%d, hub %d) = %d underestimates true distance %d", v, h, dists[i], want)
				}
			}
		}
	}
}

// TestBatchedDelayedVisibility re-runs the Proposition-1 adversary
// against the batched engine: every snapshot — scatter builds, per-
// activation prune tests, commit re-checks — sees only a random prefix
// of the true label set, which must cost only redundancy.
func TestBatchedDelayedVisibility(t *testing.T) {
	r := rand.New(rand.NewSource(304))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(r, 40+r.Intn(40), 120)
		store := &hidingStore{Store: label.NewStore(g.NumVertices()), r: rand.New(rand.NewSource(int64(trial)))}
		BuildInto(g, store, Options{Threads: 1, Engine: Batched{BatchSize: 4}})
		x := label.NewIndex(store.Store)
		checkAllPairs(t, g, x)
	}
}

// TestBatchedRace maximizes concurrent snapshot/append overlap across
// batch commits; meaningful mostly under -race.
func TestBatchedRace(t *testing.T) {
	g := gen.ChungLu(600, 2400, 2.2, 4)
	x := Build(g, Options{Threads: 8, Policy: Dynamic, Engine: Batched{BatchSize: 16}})
	r := rand.New(rand.NewSource(2))
	for q := 0; q < 30; q++ {
		s := graph.Vertex(r.Intn(g.NumVertices()))
		want := sssp.Dijkstra(g, s)
		u := graph.Vertex(r.Intn(g.NumVertices()))
		if got := x.Query(s, u); got != want[u] {
			t.Fatalf("query(%d,%d) = %d, want %d", s, u, got, want[u])
		}
	}
}

// TestBatchedInstrumentation checks the batched engine honors the
// RunConfig contract: per-position trace counts, live progress
// counters, and per-worker work that reconciles with the trace.
func TestBatchedInstrumentation(t *testing.T) {
	r := rand.New(rand.NewSource(305))
	g := randomGraph(r, 80, 160)
	var tr pll.Trace
	var prog Progress
	x, bs := BuildWithStats(g, Options{
		Threads: 3, Policy: Dynamic, Engine: Batched{BatchSize: 8},
		Trace: &tr, Progress: &prog,
	})
	n := g.NumVertices()
	if len(tr.AddedPerRoot) != n {
		t.Fatalf("trace len %d, want %d", len(tr.AddedPerRoot), n)
	}
	var added, work int64
	for i := range tr.AddedPerRoot {
		added += tr.AddedPerRoot[i]
		work += tr.WorkPerRoot[i]
		if tr.WorkPerRoot[i] <= 0 {
			t.Fatalf("position %d has non-positive work %d", i, tr.WorkPerRoot[i])
		}
	}
	if added < x.NumEntries() {
		t.Fatalf("trace added %d < index entries %d", added, x.NumEntries())
	}
	if work != bs.TotalWork() {
		t.Fatalf("trace work %d != stats work %d", work, bs.TotalWork())
	}
	s := prog.Snapshot()
	if s.TotalRoots != int64(n) || s.RootsDone != int64(n) {
		t.Fatalf("progress roots %d/%d, want %d/%d", s.RootsDone, s.TotalRoots, n, n)
	}
	if s.LabelsAdded != added || s.WorkOps != work {
		t.Fatalf("progress added=%d work=%d, trace added=%d work=%d", s.LabelsAdded, s.WorkOps, added, work)
	}
}

// TestBatchedPerWorkerStore routes the batched engine through a store
// implementing PerWorkerStore and checks every access used the
// worker's private view.
func TestBatchedPerWorkerStore(t *testing.T) {
	r := rand.New(rand.NewSource(306))
	g := randomGraph(r, 50, 100)
	store := &viewCountingStore{Store: label.NewStore(g.NumVertices())}
	BuildInto(g, store, Options{Threads: 3, Engine: Batched{BatchSize: 4}})
	if v := store.views.Load(); v != 3 {
		t.Fatalf("WorkerView called %d times, want 3", v)
	}
	if d := store.directAppends.Load(); d != 0 {
		t.Fatalf("%d appends bypassed the worker views", d)
	}
	x := label.NewIndex(store.Store)
	checkAllPairs(t, g, x)
}

// viewCountingStore implements PerWorkerStore and fails the test above
// if an engine appends through the shared store instead of a view.
type viewCountingStore struct {
	*label.Store
	views         atomic.Int64
	directAppends atomic.Int64
}

func (s *viewCountingStore) WorkerView(w, workers int) LabelStore {
	s.views.Add(1)
	return s.Store
}

func (s *viewCountingStore) Append(v, hub graph.Vertex, d graph.Dist) {
	s.directAppends.Add(1)
	s.Store.Append(v, hub, d)
}

func TestBatchedEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil)
	_, bs := BuildWithStats(g, Options{Threads: 2, Engine: Batched{}})
	if bs.ProjectedSpeedup() != 1 {
		t.Fatalf("empty-graph projected speedup = %v, want 1", bs.ProjectedSpeedup())
	}
}

func TestEngineByName(t *testing.T) {
	for _, name := range []string{"", EnginePerRoot} {
		eng, err := EngineByName(name, 0)
		if err != nil {
			t.Fatalf("EngineByName(%q): %v", name, err)
		}
		if _, ok := eng.(PerRoot); !ok {
			t.Fatalf("EngineByName(%q) = %T, want PerRoot", name, eng)
		}
	}
	eng, err := EngineByName(EngineBatched, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := eng.(Batched)
	if !ok || b.BatchSize != 7 {
		t.Fatalf("EngineByName(batched, 7) = %#v", eng)
	}
	if _, err := EngineByName("dijkstra", 0); err == nil {
		t.Fatal("unknown engine name did not error")
	}
	if got := eng.Name(); got != EngineBatched {
		t.Fatalf("Name() = %q", got)
	}
	if got := (PerRoot{}).Name(); got != EnginePerRoot {
		t.Fatalf("Name() = %q", got)
	}
}

func TestBatchSizeClamp(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultBatchSize}, {-3, DefaultBatchSize}, {1, 1}, {7, 7}, {64, 64}, {100, 64},
	}
	for _, c := range cases {
		if got := (Batched{BatchSize: c.in}).batchSize(); got != c.want {
			t.Fatalf("batchSize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestBatchedRealisticShapes runs the batched engine on the small road
// and power-law recipes under the default degree order and a sampled-ψ
// order, mirroring TestOnRealisticShapes.
func TestBatchedRealisticShapes(t *testing.T) {
	for _, name := range []string{"DE-USA", "Wiki-Vote"} {
		rec, err := gen.FindRecipe(name)
		if err != nil {
			t.Fatal(err)
		}
		g := rec.Generate(0.01)
		for ordName, ord := range map[string][]graph.Vertex{
			"degree": nil,
			"psi":    order.PsiSample(g, 8, 42),
		} {
			r := rand.New(rand.NewSource(3))
			x := Build(g, Options{Threads: 4, Policy: Dynamic, Engine: Batched{BatchSize: 16}, Order: ord})
			for q := 0; q < 8; q++ {
				s := graph.Vertex(r.Intn(g.NumVertices()))
				want := sssp.Dijkstra(g, s)
				for probe := 0; probe < 20; probe++ {
					u := graph.Vertex(r.Intn(g.NumVertices()))
					if got := x.Query(s, u); got != want[u] {
						t.Fatalf("%s/%s: query(%d,%d) = %d, want %d", name, ordName, s, u, got, want[u])
					}
				}
			}
		}
	}
}
