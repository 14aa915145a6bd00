package dynamic

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/label"
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
func TestDeltaReaderHammer(t *testing.T) { deltaReaderHammer(t, false) }

// TestDeltaReaderHammerSwapsMappedBases is TestDeltaReaderHammer with
// the index replaced before every other insert, as a compaction replaces
// the living graph's: the next Index maps one of two files that index
// the graph under different vertex orders, in turn, and replays the
// inserts so far; the swap drops the reference the old one was created with, so
// its last reader closes its base. Readers take a reference for each
// pass over the pairs. A base closed under a reader faults, or, where
// the next mapping reuses its address range, reads the other file's
// bytes and answers wrong.
func TestDeltaReaderHammerSwapsMappedBases(t *testing.T) { deltaReaderHammer(t, true) }

func deltaReaderHammer(t *testing.T, swap bool) {
	r := rand.New(rand.NewSource(95))
	const n = 120
	g := randomGraph(r, n, 2*n)
	reversed := graph.DegreeOrder(g)
	slices.Reverse(reversed)
	var paths []string
	for i, order := range [][]graph.Vertex{nil, reversed} {
		paths = append(paths, filepath.Join(t.TempDir(), fmt.Sprintf("base%d.idx", i)))
		if err := fileio.SaveIndex(fileio.OS, paths[i], pll.Build(g, pll.Options{Order: order})); err != nil {
			t.Fatal(err)
		}
	}
	opened := 0
	mapped := func() *Index { // each call maps the other file
		base, err := fileio.LoadIndex(paths[opened%2])
		if err != nil {
			t.Fatal(err)
		}
		opened++
		return FromIndex(g, base)
	}
	var cur atomic.Pointer[Index]
	cur.Store(mapped())

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

	readers := []func(x *Index) []graph.Dist{
		func(x *Index) []graph.Dist {
			out := make([]graph.Dist, len(pairs))
			for i, p := range pairs {
				out[i] = x.Query(p[0], p[1])
			}
			return out
		},
		func(x *Index) []graph.Dist {
			out := make([]graph.Dist, len(pairs))
			for i, p := range pairs {
				out[i], _ = x.QueryWithHub(p[0], p[1])
			}
			return out
		},
		func(x *Index) []graph.Dist { return x.QueryBatch(pairs, 2) },
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for k, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := append([]graph.Dist(nil), initD...)
			for rounds := 0; ; rounds++ {
				x := label.Acquire(&cur)
				got := read(x)
				x.Release()
				for i, d := range got {
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
	x := cur.Load()
	for i, e := range inserts {
		if swap && i%2 == 1 {
			next := mapped()
			for _, e := range inserts[:i] {
				if err := next.InsertEdge(e.U, e.V, e.W); err != nil {
					t.Fatal(err)
				}
			}
			cur.Store(next)
			x.Release()
			x = next
		}
		if err := x.InsertEdge(e.U, e.V, e.W); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	checkAllPairs(t, final, x)
	x.Release()
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
