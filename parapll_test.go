package parapll_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parapll"
	"parapll/internal/sssp"
)

func lineGraph() *parapll.Graph {
	return parapll.NewGraph(4, []parapll.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 5},
	})
}

func TestQuickstart(t *testing.T) {
	g := lineGraph()
	idx := parapll.Build(g, parapll.Options{})
	if d := idx.Query(0, 3); d != 12 {
		t.Fatalf("Query(0,3) = %d, want 12", d)
	}
	if d := idx.Query(2, 2); d != 0 {
		t.Fatalf("self query = %d", d)
	}
}

func TestBuildVariantsAgree(t *testing.T) {
	g, err := parapll.GenerateDataset("Gnutella", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	serial := parapll.BuildSerial(g, parapll.Options{})
	par := parapll.Build(g, parapll.Options{Threads: 4, Policy: parapll.Dynamic})
	clustered, err := parapll.RunLocalCluster(g, 3, parapll.ClusterOptions{
		Options: parapll.Options{Threads: 2}, SyncCount: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	for q := 0; q < 50; q++ {
		s := parapll.Vertex(r.Intn(n))
		u := parapll.Vertex(r.Intn(n))
		want := serial.Query(s, u)
		if got := par.Query(s, u); got != want {
			t.Fatalf("parallel Query(%d,%d) = %d, want %d", s, u, got, want)
		}
		if got := clustered.Query(s, u); got != want {
			t.Fatalf("cluster Query(%d,%d) = %d, want %d", s, u, got, want)
		}
		if got := parapll.QueryDirect(g, s, u); got != want {
			t.Fatalf("QueryDirect(%d,%d) = %d, want %d", s, u, got, want)
		}
	}
}

func TestOrderings(t *testing.T) {
	g, err := parapll.GenerateDataset("Wiki-Vote", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	want := parapll.Dijkstra(g, 0)
	for _, ord := range []parapll.Ordering{parapll.OrderDegree, parapll.OrderPsi, parapll.OrderRandom} {
		idx := parapll.Build(g, parapll.Options{Threads: 2, Order: ord, Seed: 7})
		for u := 0; u < g.NumVertices(); u += 13 {
			if got := idx.Query(0, parapll.Vertex(u)); got != want[u] {
				t.Fatalf("order %v: Query(0,%d) = %d, want %d", ord, u, got, want[u])
			}
		}
	}
}

func TestGraphAndIndexPersistence(t *testing.T) {
	dir := t.TempDir()
	g := lineGraph()
	gp := filepath.Join(dir, "g.bin")
	if err := parapll.SaveGraph(gp, g); err != nil {
		t.Fatal(err)
	}
	g2, err := parapll.LoadGraph(gp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, g2) {
		t.Fatal("graph persistence round trip failed")
	}
	idx := parapll.BuildSerial(g, parapll.Options{})
	ip := filepath.Join(dir, "g.idx")
	if err := parapll.SaveIndex(ip, idx); err != nil {
		t.Fatal(err)
	}
	idx2, err := parapll.LoadIndex(ip)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Equal(idx2) {
		t.Fatal("index persistence round trip failed")
	}
	if d := idx2.Query(0, 3); d != 12 {
		t.Fatalf("loaded index Query = %d, want 12", d)
	}
}

// TestBuildFileMatchesSaveIndex: BuildFile and BuildSerialFile, which
// stream the labels into the file, write the bytes SaveIndex writes of
// Build's and BuildSerial's index (one thread, so the builds are
// deterministic), and return the header those indexes report.
func TestBuildFileMatchesSaveIndex(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var edges []parapll.Edge
	for i := 0; i < 600; i++ {
		edges = append(edges, parapll.Edge{U: parapll.Vertex(r.Intn(200)), V: parapll.Vertex(r.Intn(200)), W: parapll.Dist(1 + r.Intn(9))})
	}
	g := parapll.NewGraph(200, edges)
	opt := parapll.Options{Threads: 1}
	dir := t.TempDir()
	for name, c := range map[string]struct {
		idx    *parapll.Index
		stream func(path string) (parapll.IndexHeader, error)
	}{
		"BuildFile": {parapll.Build(g, opt), func(path string) (parapll.IndexHeader, error) {
			h, _, err := parapll.BuildFile(path, g, opt)
			return h, err
		}},
		"BuildSerialFile": {parapll.BuildSerial(g, opt), func(path string) (parapll.IndexHeader, error) {
			return parapll.BuildSerialFile(path, g, opt)
		}},
	} {
		saved, streamed := filepath.Join(dir, name+".saved"), filepath.Join(dir, name+".streamed")
		if err := parapll.SaveIndex(saved, c.idx); err != nil {
			t.Fatal(err)
		}
		h, err := c.stream(streamed)
		if err != nil {
			t.Fatal(err)
		}
		a, errA := os.ReadFile(saved)
		b, errB := os.ReadFile(streamed)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if string(a) != string(b) {
			t.Errorf("%s wrote %d bytes unlike SaveIndex's %d", name, len(b), len(a))
		}
		hk, _ := h.Head()
		xk, _ := c.idx.Head()
		if h.NumEntries() != c.idx.NumEntries() || h.AvgLabelSize() != c.idx.AvgLabelSize() || hk != xk {
			t.Errorf("%s header reports %d entries, LN %.2f, K %d; the index %d, %.2f, %d", name,
				h.NumEntries(), h.AvgLabelSize(), hk, c.idx.NumEntries(), c.idx.AvgLabelSize(), xk)
		}
	}
}

// TestPath holds Path to Dijkstra on every pair of three random graphs,
// each indexed at 1 and 2 threads. Weights 1-3 make equal-length paths
// common, the third graph's 0-3 put zero-weight edges on them, and every
// graph has two components plus an isolated vertex. An index of another
// graph with the same n must give (nil, Inf): its distances are
// multiples of 1000, which no step of weight 0-3 meets. So must one with
// fewer vertices, which the walk would ask out of range, and an s == t
// that is no vertex.
func TestPath(t *testing.T) {
	// Pinned paths across a zero-weight level: 0-1, 0-2 and 2-3 weigh 0,
	// 3-4 weighs 2 and 0-4 5. From 0 or 1 to 4 no positive-weight step
	// passes until 3, so the walk searches the level (past the dead end
	// 1); 1 to 3 is all zero weights, and 4 to 1 ends on the level.
	z := parapll.NewGraph(5, []parapll.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 2, V: 3}, {U: 3, V: 4, W: 2}, {U: 0, V: 4, W: 5}})
	zi := parapll.Build(z, parapll.Options{Threads: 1})
	for _, c := range []struct {
		s, u parapll.Vertex
		want []parapll.Vertex
		d    parapll.Dist
	}{
		{0, 4, []parapll.Vertex{0, 2, 3, 4}, 2},
		{1, 4, []parapll.Vertex{1, 0, 2, 3, 4}, 2},
		{1, 3, []parapll.Vertex{1, 0, 2, 3}, 0},
		{4, 1, []parapll.Vertex{4, 3, 2, 0, 1}, 2},
	} {
		if path, d := parapll.Path(z, zi, c.s, c.u); d != c.d || !reflect.DeepEqual(path, c.want) {
			t.Fatalf("Path(%d,%d) = %v, %d; want %v, %d", c.s, c.u, path, d, c.want, c.d)
		}
	}

	r := rand.New(rand.NewSource(2))
	edge := func(lo, hi int, w parapll.Dist) parapll.Edge {
		return parapll.Edge{U: parapll.Vertex(lo + r.Intn(hi-lo)), V: parapll.Vertex(lo + r.Intn(hi-lo)), W: w}
	}
	for trial := 0; trial < 3; trial++ {
		n := 20 + r.Intn(20)
		lo := 1 - trial/2 // the third graph's lightest edges weigh 0
		weight := func() parapll.Dist { return parapll.Dist(lo + r.Intn(4-lo)) }
		var edges []parapll.Edge
		for _, c := range [][2]int{{0, n / 2}, {n / 2, n - 1}} { // n-1 stays isolated
			for v := c[0] + 1; v < c[1]; v++ {
				e := edge(c[0], v, weight())
				e.V = parapll.Vertex(v)
				edges = append(edges, e, edge(c[0], c[1], weight()))
			}
		}
		g := parapll.NewGraph(n, edges)
		var foreign []parapll.Edge
		for i := 0; i < 2*n; i++ {
			foreign = append(foreign, edge(0, n, parapll.Dist(1000*(1+r.Intn(3)))))
		}
		other := parapll.Build(parapll.NewGraph(n, foreign), parapll.Options{Threads: 1})
		smaller := parapll.Build(parapll.NewGraph(n-1, nil), parapll.Options{Threads: 1})
		if p, d := parapll.Path(g, smaller, 0, parapll.Vertex(n-1)); p != nil || d != parapll.Inf {
			t.Fatalf("Path over an index of %d vertices beside %d = %v, %d; want nil, Inf", n-1, n, p, d)
		}
		if p, d := parapll.Path(g, other, parapll.Vertex(n), parapll.Vertex(n)); p != nil || d != parapll.Inf {
			t.Fatalf("Path(%d,%d) on %d vertices = %v, %d; want nil, Inf", n, n, n, p, d)
		}
		for _, threads := range []int{1, 2} {
			idx := parapll.Build(g, parapll.Options{Threads: threads, Policy: parapll.Dynamic})
			for s := parapll.Vertex(0); int(s) < n; s++ {
				want := parapll.Dijkstra(g, s)
				for u := parapll.Vertex(0); int(u) < n; u++ {
					if q := idx.Query(s, u); q != want[u] {
						t.Fatalf("trial %d, %d threads: Query(%d,%d) = %d, Dijkstra %d", trial, threads, s, u, q, want[u])
					}
					path, d := parapll.Path(g, idx, s, u)
					switch {
					case s == u:
						if d != 0 || !reflect.DeepEqual(path, []parapll.Vertex{s}) {
							t.Fatalf("Path(%d,%d) = %v, %d; want [%d], 0", s, u, path, d, s)
						}
						continue
					case want[u] == parapll.Inf:
						if path != nil || d != parapll.Inf {
							t.Fatalf("disconnected Path(%d,%d) = %v, %d", s, u, path, d)
						}
					default:
						checkPath(t, g, s, u, path, d, want[u])
					}
					if p, d := parapll.Path(g, other, s, u); p != nil || d != parapll.Inf {
						t.Fatalf("Path(%d,%d) over another graph's index = %v, %d; want nil, Inf", s, u, p, d)
					}
				}
			}
		}
	}
}

// checkPath fails unless path runs from s to u over edges of g whose
// weights sum to d, and d is want.
func checkPath(t *testing.T, g *parapll.Graph, s, u parapll.Vertex, path []parapll.Vertex, d, want parapll.Dist) {
	t.Helper()
	if d != want {
		t.Fatalf("Path(%d,%d) length %d, Dijkstra %d", s, u, d, want)
	}
	if len(path) < 2 || path[0] != s || path[len(path)-1] != u {
		t.Fatalf("Path(%d,%d) = %v: wrong endpoints", s, u, path)
	}
	var sum parapll.Dist
	for i := 1; i < len(path); i++ {
		w, ok := g.HasEdge(path[i-1], path[i])
		if !ok {
			t.Fatalf("Path(%d,%d) = %v: {%d,%d} is no edge", s, u, path, path[i-1], path[i])
		}
		sum += w
	}
	if sum != d {
		t.Fatalf("Path(%d,%d) = %v: weights sum to %d, not %d", s, u, path, sum, d)
	}
}

func TestDatasetNames(t *testing.T) {
	names := parapll.DatasetNames()
	if len(names) != 11 || names[0] != "Wiki-Vote" || names[10] != "Euall" {
		t.Fatalf("DatasetNames = %v", names)
	}
	if _, err := parapll.GenerateDataset("nope", 0.5); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestBuildUnweighted holds the hop-count index to BFS on every pair of a
// weighted graph, serially and in parallel; some pair must differ from its
// weighted distance, or the weights were not ignored.
func TestBuildUnweighted(t *testing.T) {
	g, err := parapll.GenerateDataset("Wiki-Vote", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for _, threads := range []int{1, 2} {
		hop := parapll.BuildUnweighted(g, parapll.Options{Threads: threads})
		differs := false
		for s := parapll.Vertex(0); int(s) < n; s++ {
			want, weighted := sssp.BFS(g, s), parapll.Dijkstra(g, s)
			for u := parapll.Vertex(0); int(u) < n; u++ {
				if got := hop.Query(s, u); got != want[u] {
					t.Fatalf("threads=%d: hop(%d,%d) = %d, BFS says %d", threads, s, u, got, want[u])
				}
				differs = differs || want[u] != weighted[u]
			}
		}
		if !differs {
			t.Fatalf("threads=%d: every hop count equals its weighted distance", threads)
		}
	}
}

func TestInfUnreachable(t *testing.T) {
	g := parapll.NewGraph(3, []parapll.Edge{{U: 0, V: 1, W: 1}})
	idx := parapll.Build(g, parapll.Options{})
	if d := idx.Query(0, 2); d != parapll.Inf {
		t.Fatalf("unreachable = %d, want Inf", d)
	}
}

func TestBuildDynamic(t *testing.T) {
	g := parapll.NewGraph(4, []parapll.Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 5}, {U: 2, V: 3, W: 5},
	})
	dx := parapll.BuildDynamic(g, parapll.Options{})
	if d := dx.Query(0, 3); d != 15 {
		t.Fatalf("pre-insert d = %d, want 15", d)
	}
	if err := dx.InsertEdge(0, 3, 2); err != nil {
		t.Fatal(err)
	}
	if d := dx.Query(0, 3); d != 2 {
		t.Fatalf("post-insert d = %d, want 2", d)
	}
	if d := dx.Query(1, 3); d != 7 {
		t.Fatalf("post-insert d(1,3) = %d, want 7 (1-0-3)", d)
	}
}

func TestFacadeTracer(t *testing.T) {
	g, err := parapll.GenerateDataset("Wiki-Vote", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	tr := parapll.NewTracer(0, 0)
	tr.Enable()
	idx := parapll.Build(g, parapll.Options{Threads: 2, Policy: parapll.Dynamic, Tracer: tr})
	if idx.NumEntries() == 0 {
		t.Fatal("empty index")
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("facade tracer recorded nothing")
	}
	data, err := tr.Capture(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty capture")
	}
	// A merged single-capture file round-trips through MergeTraces.
	dir := t.TempDir()
	in := filepath.Join(dir, "a.json")
	out := filepath.Join(dir, "merged.json")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := parapll.MergeTraces(out, []string{in}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
}
