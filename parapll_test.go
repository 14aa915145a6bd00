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

func TestBuildPathIndex(t *testing.T) {
	g, err := parapll.GenerateDataset("DE-USA", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	pidx := parapll.BuildPathIndex(g, parapll.Options{Threads: 2, Policy: parapll.Dynamic})
	r := rand.New(rand.NewSource(2))
	n := g.NumVertices()
	for q := 0; q < 25; q++ {
		s := parapll.Vertex(r.Intn(n))
		u := parapll.Vertex(r.Intn(n))
		want := parapll.QueryDirect(g, s, u)
		path, d := pidx.Path(s, u)
		if d != want {
			t.Fatalf("Path dist (%d,%d) = %d, want %d", s, u, d, want)
		}
		if want == parapll.Inf {
			continue
		}
		var sum parapll.Dist
		for i := 1; i < len(path); i++ {
			w, ok := g.HasEdge(path[i-1], path[i])
			if !ok {
				t.Fatalf("path uses non-edge {%d,%d}", path[i-1], path[i])
			}
			sum += w
		}
		if sum != d {
			t.Fatalf("path weight %d != dist %d", sum, d)
		}
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

func TestNewKNN(t *testing.T) {
	g, err := parapll.GenerateDataset("Wiki-Vote", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	idx := parapll.Build(g, parapll.Options{Threads: 2, Policy: parapll.Dynamic})
	knn := parapll.NewKNN(idx)
	r := rand.New(rand.NewSource(4))
	for probe := 0; probe < 5; probe++ {
		s := parapll.Vertex(r.Intn(g.NumVertices()))
		res := knn.Query(s, 3)
		truth := parapll.Dijkstra(g, s)
		for i, e := range res {
			if truth[e.V] != e.D {
				t.Fatalf("kNN result %d: d(%d,%d)=%d, true %d", i, s, e.V, e.D, truth[e.V])
			}
		}
		// No non-result vertex may be strictly closer than the last result.
		if len(res) == 3 {
			inRes := map[parapll.Vertex]bool{res[0].V: true, res[1].V: true, res[2].V: true}
			for v, d := range truth {
				if parapll.Vertex(v) != s && !inRes[parapll.Vertex(v)] && d < res[2].D {
					t.Fatalf("vertex %d at distance %d closer than 3rd result %d", v, d, res[2].D)
				}
			}
		}
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

func TestConnectTCPSingleRank(t *testing.T) {
	comm, err := parapll.ConnectTCP(0, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer comm.Close()
	g := lineGraph()
	idx, err := parapll.BuildCluster(g, comm, parapll.ClusterOptions{SyncCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := idx.Query(0, 3); d != 12 {
		t.Fatalf("cluster-of-one Query = %d", d)
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
