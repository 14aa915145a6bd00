package dynamic

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/pll"
	"parapll/internal/sssp"
)

// TestDeltaReaderHammer holds the lock-free read side to the Index
// concurrency contract: three goroutines query — Query, QueryWithHub,
// QueryBatch — while this one applies random inserts over a mapped PIDM
// base. Every answer lies between the pair's distance on the final graph
// and on the initial one, and no reader sees a pair's answer go up. Under
// -race it also shows that readers share nothing with the writer but the
// runs it publishes.
func TestDeltaReaderHammer(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	const n = 120
	g := randomGraph(r, n, 2*n)
	path := filepath.Join(t.TempDir(), "base.idx")
	if err := fileio.SaveIndex(fileio.OS, path, pll.Build(g, pll.Options{})); err != nil {
		t.Fatal(err)
	}
	base, err := fileio.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	x := FromIndex(g, base)

	final := g
	var inserts []graph.Edge
	for len(inserts) < 48 {
		e := graph.Edge{U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(20))}
		if e.U != e.V {
			inserts = append(inserts, e)
			final = withEdge(final, e)
		}
	}
	pairs := make([][2]graph.Vertex, 40)
	initD := make([]graph.Dist, len(pairs))
	finalD := make([]graph.Dist, len(pairs))
	for i := range pairs {
		s, u := graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))
		pairs[i] = [2]graph.Vertex{s, u}
		initD[i] = sssp.Query(g, s, u)
		finalD[i] = sssp.Query(final, s, u)
	}

	readers := []func() []graph.Dist{
		func() []graph.Dist {
			out := make([]graph.Dist, len(pairs))
			for i, p := range pairs {
				out[i] = x.Query(p[0], p[1])
			}
			return out
		},
		func() []graph.Dist {
			out := make([]graph.Dist, len(pairs))
			for i, p := range pairs {
				out[i], _ = x.QueryWithHub(p[0], p[1])
			}
			return out
		},
		func() []graph.Dist { return x.QueryBatch(pairs, 2) },
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for k, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := append([]graph.Dist(nil), initD...)
			for rounds := 0; ; rounds++ {
				for i, d := range read() {
					if d < finalD[i] || d > last[i] {
						t.Errorf("reader %d, round %d: d%v = %d, want within [%d, %d]", k, rounds, pairs[i], d, finalD[i], last[i])
						return
					}
					last[i] = d
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for _, e := range inserts {
		if err := x.InsertEdge(e.U, e.V, e.W); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	checkAllPairs(t, final, x)
}

// TestConcurrentQueryBatchHammer runs many overlapping batches and
// single queries with no writer. Queries only read the labels — under
// -race this proves they share no scratch (the InsertEdge-owned search
// and union buffers) across goroutines.
func TestConcurrentQueryBatchHammer(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	n := 60
	g := randomGraph(r, n, 2*n)
	x := Build(g, pll.Options{})

	// Ground truth before any concurrency.
	pairs := make([][2]graph.Vertex, 600)
	want := make([]graph.Dist, len(pairs))
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))}
		want[i] = x.Query(pairs[i][0], pairs[i][1])
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(threads int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got := x.QueryBatch(pairs, threads)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("batch[%d] = %d, want %d", i, got[i], want[i])
						return
					}
				}
			}
		}(1 + w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for rep := 0; rep < 2000; rep++ {
				i := rr.Intn(len(pairs))
				if got := x.Query(pairs[i][0], pairs[i][1]); got != want[i] {
					t.Errorf("query %v = %d, want %d", pairs[i], got, want[i])
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
