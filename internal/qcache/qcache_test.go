package qcache

import (
	"math/rand"
	"sync"
	"testing"

	"parapll/internal/dynamic"
	"parapll/internal/graph"
	"parapll/internal/oracle"
	"parapll/internal/pll"
)

func TestCacheBasic(t *testing.T) {
	c := New(64)
	if _, ok := c.Get(1, 2, 3); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, 2, 3, 42)
	if d, ok := c.Get(1, 2, 3); !ok || d != 42 {
		t.Fatalf("Get = (%d,%v), want (42,true)", d, ok)
	}
	// Overwrite in place.
	c.Put(1, 2, 3, 7)
	if d, _ := c.Get(1, 2, 3); d != 7 {
		t.Fatalf("after overwrite Get = %d, want 7", d)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheNegativeAnswer(t *testing.T) {
	// graph.Inf is a first-class cached value, not a sentinel for "absent".
	c := New(8)
	c.Put(3, 0, 1, graph.Inf)
	d, ok := c.Get(3, 0, 1)
	if !ok || d != graph.Inf {
		t.Fatalf("Get = (%d,%v), want (Inf,true)", d, ok)
	}
}

func TestCacheGenerationKeying(t *testing.T) {
	// The same pair under different generations are distinct entries —
	// the /reload invariant.
	c := New(64)
	c.Put(1, 5, 6, 100)
	c.Put(2, 5, 6, 200)
	if d, _ := c.Get(1, 5, 6); d != 100 {
		t.Fatalf("gen 1 = %d, want 100", d)
	}
	if d, _ := c.Get(2, 5, 6); d != 200 {
		t.Fatalf("gen 2 = %d, want 200", d)
	}
	if _, ok := c.Get(3, 5, 6); ok {
		t.Fatal("unseen generation hit")
	}
}

func TestCacheEviction(t *testing.T) {
	// entries=1 is one set of one slot: any second key evicts the first.
	c := New(1)
	if c.Capacity() != 1 {
		t.Fatalf("Capacity = %d, want 1", c.Capacity())
	}
	c.Put(1, 0, 1, 10)
	c.Put(1, 0, 2, 20)
	if _, ok := c.Get(1, 0, 1); ok {
		t.Fatal("evicted entry still present")
	}
	if d, ok := c.Get(1, 0, 2); !ok || d != 20 {
		t.Fatalf("survivor = (%d,%v), want (20,true)", d, ok)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSetRecency(t *testing.T) {
	// Per-set recency: a Get moves its slot to the front, so of two
	// entries of one full set the touched one outlives the untouched one.
	c := New(ways) // one set: every key collides
	for i := graph.Vertex(1); i <= ways; i++ {
		c.Put(1, 0, i, graph.Dist(10*i))
	}
	if _, ok := c.Get(1, 0, 1); !ok { // the oldest is now the most recent
		t.Fatal("(0,1) missing")
	}
	c.Put(1, 0, 9, 90)
	if _, ok := c.Peek(1, 0, 2); ok {
		t.Fatal("least recent entry (0,2) survived; recency not updated by Get")
	}
	for _, u := range []graph.Vertex{1, 3, 4, 9} {
		if d, ok := c.Peek(1, 0, u); !ok || d != graph.Dist(10*u) {
			t.Fatalf("(0,%d) = (%d,%v), want (%d,true)", u, d, ok, 10*u)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != ways {
		t.Fatalf("stats = %+v, want 1 eviction and a full set", st)
	}
}

func TestCacheFillStaysBounded(t *testing.T) {
	c := New(128)
	capTotal := c.Capacity()
	for i := 0; i < 10*capTotal; i++ {
		c.Put(1, graph.Vertex(i), graph.Vertex(i+1), graph.Dist(i))
	}
	if got := c.Len(); got > capTotal {
		t.Fatalf("Len = %d exceeds capacity %d", got, capTotal)
	}
}

func TestCacheConcurrent(t *testing.T) {
	// Hammered under -race by check.sh: concurrent Get/Put over a small
	// keyspace forces stripe contention, eviction and recency churn at once.
	c := New(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				s := graph.Vertex(r.Intn(64))
				u := graph.Vertex(r.Intn(64))
				gen := uint64(1 + r.Intn(3))
				if r.Intn(2) == 0 {
					c.Put(gen, s, u, graph.Dist(s)+graph.Dist(u))
				} else if d, ok := c.Get(gen, s, u); ok && d != graph.Dist(s)+graph.Dist(u) {
					t.Errorf("corrupt read: (%d,%d) = %d", s, u, d)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if got, want := c.Len(), c.Capacity(); got > want {
		t.Fatalf("Len = %d exceeds capacity %d", got, want)
	}
}

// randomConnected builds a random connected undirected graph.
func randomConnected(r *rand.Rand, n, extra int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1+extra)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: graph.Dist(1 + r.Intn(20)),
		})
	}
	for i := 0; i < extra; i++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(20)),
		})
	}
	return graph.FromEdges(n, edges)
}

// checkEquivalence drives the wrapper twice over the same pairs — the
// first pass fills the cache, the second must be all hits — and both
// passes must match the uncached oracle exactly.
func checkEquivalence(t *testing.T, kind string, inner oracle.Oracle, symmetric bool) {
	t.Helper()
	c := New(1 << 12)
	w := Wrap(inner, c, 7, Options{Symmetric: symmetric})
	n := inner.NumVertices()
	r := rand.New(rand.NewSource(5))
	pairs := make([][2]graph.Vertex, 400)
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))}
	}
	for pass := 0; pass < 2; pass++ {
		for _, p := range pairs {
			if got, want := w.Query(p[0], p[1]), inner.Query(p[0], p[1]); got != want {
				t.Fatalf("%s pass %d: Query(%d,%d) = %d, want %d", kind, pass, p[0], p[1], got, want)
			}
		}
		batch := w.QueryBatch(pairs, 3)
		for i, p := range pairs {
			if want := inner.Query(p[0], p[1]); batch[i] != want {
				t.Fatalf("%s pass %d: batch[%d] = %d, want %d", kind, pass, i, batch[i], want)
			}
		}
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatalf("%s: second pass produced no hits (stats %+v)", kind, st)
	}
}

func TestCachedEquivalenceAllOracles(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomConnected(r, 60, 120)

	t.Run("label", func(t *testing.T) {
		checkEquivalence(t, "label", pll.Build(g, pll.Options{}), true)
	})
	t.Run("dynamic", func(t *testing.T) {
		checkEquivalence(t, "dynamic", dynamic.Build(g, pll.Options{}), true)
	})
}

func TestCachedSymmetricCanonicalization(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	g := randomConnected(r, 30, 40)
	x := pll.Build(g, pll.Options{})
	c := New(1 << 10)
	w := Wrap(x, c, 1, Options{Symmetric: true})
	d1 := w.Query(3, 17)
	d2 := w.Query(17, 3) // reversed pair must hit the same entry
	if d1 != d2 {
		t.Fatalf("asymmetric answers: %d vs %d", d1, d2)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly one miss then one hit", st)
	}
}

func TestCachedNegativeCaching(t *testing.T) {
	// Two components: cross-component queries are Inf and must be served
	// from cache on repeat, not re-merged.
	edges := []graph.Edge{{U: 0, V: 1, W: 5}, {U: 2, V: 3, W: 5}}
	x := pll.Build(graph.FromEdges(4, edges), pll.Options{})
	c := New(64)
	w := Wrap(x, c, 1, Options{Symmetric: true})
	if d := w.Query(0, 2); d != graph.Inf {
		t.Fatalf("cross-component = %d, want Inf", d)
	}
	if d := w.Query(0, 2); d != graph.Inf {
		t.Fatalf("cached cross-component = %d, want Inf", d)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want the second Inf to hit", st)
	}
}

func TestCachedGenerationIsolation(t *testing.T) {
	// Two wrappers over different inner oracles sharing one cache —
	// the snapshot-swap shape. Each generation must see only its own
	// index's answers.
	r := rand.New(rand.NewSource(31))
	gA := randomConnected(r, 25, 30)
	gB := randomConnected(r, 25, 90) // denser: different distances
	xA := pll.Build(gA, pll.Options{})
	xB := pll.Build(gB, pll.Options{})
	c := New(1 << 10)
	wA := Wrap(xA, c, 1, Options{Symmetric: true})
	wB := Wrap(xB, c, 2, Options{Symmetric: true})
	for s := graph.Vertex(0); s < 25; s++ {
		for u := graph.Vertex(0); u < 25; u++ {
			// Interleave so a keying bug would cross-contaminate.
			if got, want := wA.Query(s, u), xA.Query(s, u); got != want {
				t.Fatalf("gen1 Query(%d,%d) = %d, want %d", s, u, got, want)
			}
			if got, want := wB.Query(s, u), xB.Query(s, u); got != want {
				t.Fatalf("gen2 Query(%d,%d) = %d, want %d", s, u, got, want)
			}
		}
	}
}

func TestCachedBatchMixedHitMiss(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	g := randomConnected(r, 40, 80)
	x := pll.Build(g, pll.Options{})
	c := New(1 << 10)
	w := Wrap(x, c, 1, Options{Symmetric: true})
	warm := [][2]graph.Vertex{{0, 1}, {2, 3}, {4, 5}}
	w.QueryBatch(warm, 1)
	mixed := [][2]graph.Vertex{{0, 1}, {6, 7}, {2, 3}, {8, 9}, {4, 5}}
	got := w.QueryBatch(mixed, 2)
	for i, p := range mixed {
		if want := x.Query(p[0], p[1]); got[i] != want {
			t.Fatalf("mixed[%d] = %d, want %d", i, got[i], want)
		}
	}
}
