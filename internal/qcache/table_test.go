package qcache

import (
	"container/list"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"parapll/internal/graph"
)

// refKey / refLRU are the reference the table is held to: an exact,
// unsharded LRU over a Go map and a linked list — the shape the cache
// had before it became a set-associative table.
type refKey struct {
	gen  uint64
	s, t graph.Vertex
}

type refEnt struct {
	k refKey
	d graph.Dist
}

type refLRU struct {
	cap int
	m   map[refKey]*list.Element
	l   *list.List // front = most recent
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{cap: capacity, m: make(map[refKey]*list.Element), l: list.New()}
}

func (r *refLRU) get(k refKey, touch bool) (graph.Dist, bool) {
	e, ok := r.m[k]
	if !ok {
		return 0, false
	}
	if touch {
		r.l.MoveToFront(e)
	}
	return e.Value.(*refEnt).d, true
}

func (r *refLRU) put(k refKey, d graph.Dist) {
	if e, ok := r.m[k]; ok {
		e.Value.(*refEnt).d = d
		r.l.MoveToFront(e)
		return
	}
	if r.l.Len() == r.cap {
		last := r.l.Back()
		delete(r.m, last.Value.(*refEnt).k)
		r.l.Remove(last)
	}
	r.m[k] = r.l.PushFront(&refEnt{k: k, d: d})
}

// TestTableMatchesModel drives random Get / Put / Peek sequences over a
// small key space and several generations. Whatever the table's size,
// a hit returns the last value put for exactly that (gen, s, t) and the
// fill never passes the bound; a table of one set is an exact LRU, so
// there every outcome — hit or miss, value, fill — equals the
// reference's.
func TestTableMatchesModel(t *testing.T) {
	for _, entries := range []int{1, 3, ways, 24, 64} {
		c := New(entries)
		exact := len(c.sets) == 1
		ref := newRefLRU(c.Capacity())
		last := make(map[refKey]graph.Dist) // every key's latest value, never evicted
		r := rand.New(rand.NewSource(int64(entries)))
		for op := 0; op < 40000; op++ {
			k := refKey{gen: uint64(1 + r.Intn(3)), s: graph.Vertex(r.Intn(6)), t: graph.Vertex(r.Intn(6))}
			check := func(what string, d graph.Dist, ok bool, wd graph.Dist, wok bool) {
				t.Helper()
				if want, put := last[k]; ok && (!put || d != want) {
					t.Fatalf("New(%d) op %d: %s(%+v) = %d, last put %d (ever put: %v)", entries, op, what, k, d, want, put)
				}
				if exact && (ok != wok || (ok && d != wd)) {
					t.Fatalf("New(%d) op %d: %s(%+v) = (%d,%v), exact LRU says (%d,%v)", entries, op, what, k, d, ok, wd, wok)
				}
			}
			switch r.Intn(4) {
			case 0:
				d := graph.Dist(r.Intn(1000))
				if r.Intn(8) == 0 {
					d = graph.Inf
				}
				c.Put(k.gen, k.s, k.t, d)
				ref.put(k, d)
				last[k] = d
			case 1:
				d, ok := c.Peek(k.gen, k.s, k.t)
				wd, wok := ref.get(k, false)
				check("Peek", d, ok, wd, wok)
			default:
				d, ok := c.Get(k.gen, k.s, k.t)
				wd, wok := ref.get(k, true)
				check("Get", d, ok, wd, wok)
			}
			if c.Len() > c.Capacity() || c.Capacity() > entries {
				t.Fatalf("New(%d) op %d: Len %d, Capacity %d", entries, op, c.Len(), c.Capacity())
			}
			if exact && c.Len() != ref.l.Len() {
				t.Fatalf("New(%d) op %d: Len %d, reference holds %d", entries, op, c.Len(), ref.l.Len())
			}
		}
	}
}

// TestCapacityIsABound: the table never holds more than it was asked
// to, and says how much it really holds.
func TestCapacityIsABound(t *testing.T) {
	for _, tc := range []struct{ entries, capacity int }{
		{0, 1}, {1, 1}, {3, 3}, {4, 4}, {7, 4}, {100, 100}, {1023, 1020}, {65536, 65536},
	} {
		c := New(tc.entries)
		if c.Capacity() != tc.capacity {
			t.Fatalf("New(%d).Capacity() = %d, want %d", tc.entries, c.Capacity(), tc.capacity)
		}
		for i := 0; i < 8*tc.capacity; i++ {
			c.Put(1, graph.Vertex(i), graph.Vertex(i>>3), 1)
		}
		if st := c.Stats(); st.Entries > tc.capacity || st.Capacity != tc.capacity ||
			st.Entries+int(st.Evictions) != 8*tc.capacity {
			t.Fatalf("New(%d) after %d distinct puts: %+v", tc.entries, 8*tc.capacity, st)
		}
	}
}

// TestGenerationTagWrap: a slot keeps tagBits of its generation, the
// shard the rest. Generations 2^tagBits apart share a tag; crossing
// that point must clear rather than alias.
func TestGenerationTagWrap(t *testing.T) {
	const wrap = uint64(1) << tagBits
	// One set, so that nothing but the tag and the epoch tells two
	// generations of a pair apart (in a larger table they also hash to
	// different sets, all but one time in `sets`).
	one := New(ways)
	one.Put(5, 1, 2, 10)
	one.Put(5, 3, 4, 30)
	for _, g := range []uint64{wrap + 5, 2*wrap + 5} {
		if d, ok := one.Get(g, 1, 2); ok {
			t.Fatalf("generation %d hit generation 5's answer %d", g, d)
		}
	}
	one.Put(wrap+5, 1, 2, 20) // the new epoch's first put clears the shard
	if d, ok := one.Get(wrap+5, 3, 4); ok {
		t.Fatalf("generation 2^%d+5 hit generation 5's (3,4) = %d: shard not cleared", tagBits, d)
	}
	if d, ok := one.Get(5, 1, 2); ok {
		t.Fatalf("generation 5 hit %d after the wrap", d)
	}
	one.Put(5, 1, 2, 7) // a straggler: dropped
	if d, ok := one.Get(wrap+5, 1, 2); !ok || d != 20 || one.Len() != 1 {
		t.Fatalf("after a straggler's put: (%d,%v), Len %d; want (20,true), 1", d, ok, one.Len())
	}

	// Many sets, many shards: each shard clears itself at its own first
	// put of the new epoch, and the entry count follows.
	c := New(4096) // roomy: nothing below is evicted for want of a slot
	for v := graph.Vertex(0); v < 100; v++ {
		c.Put(wrap-1, v, v+1, graph.Dist(v))
		c.Put(5, v, v+1, 1000+graph.Dist(v))
	}
	// A straggler of the old epoch is served from a shard not yet
	// cleared or not at all — either way with its own generation's
	// answer, and it never disturbs the new epoch's.
	for v := graph.Vertex(0); v < 100; v++ {
		c.Put(wrap+5, v, v+1, 2000+graph.Dist(v))
	}
	for v := graph.Vertex(0); v < 100; v++ {
		if d, ok := c.Get(5, v, v+1); ok && d != 1000+graph.Dist(v) {
			t.Fatalf("gen 5 (%d,%d) = %d after the wrap, want %d or a miss", v, v+1, d, 1000+v)
		}
		c.Put(5, v, v+1, 7)
		if d, ok := c.Peek(5, v, v+1); ok && d != 7 {
			t.Fatalf("gen 5 (%d,%d) = %d after its own put of 7", v, v+1, d)
		}
		if d, ok := c.Get(wrap+5, v, v+1); !ok || d != 2000+graph.Dist(v) {
			t.Fatalf("gen 2^%d+5 (%d,%d) = (%d,%v), want (%d,true)", tagBits, v, v+1, d, ok, 2000+v)
		}
	}
	live := 0
	for i := range c.sets {
		for _, sl := range c.sets[i] {
			if sl.tag != 0 {
				live++
			}
		}
	}
	if c.Len() != live || live > c.Capacity() {
		t.Fatalf("Len = %d, occupied slots = %d, capacity %d", c.Len(), live, c.Capacity())
	}
}

// benchVertices is the vertex count of the repository benchmark's
// serving graph (Gnutella at scale 0.35); hotPairs and the Zipf
// exponent are its hot set.
const (
	benchVertices = 3807
	hotPairs      = 4096
	binaryEntries = 65536 // cmd/parapll-server's -cache-entries default
)

func uniformPair(r *rand.Rand) [2]graph.Vertex {
	return [2]graph.Vertex{graph.Vertex(r.Intn(benchVertices)), graph.Vertex(r.Intn(benchVertices))}
}

func newHotSet(r *rand.Rand) ([][2]graph.Vertex, *rand.Zipf) {
	hot := make([][2]graph.Vertex, hotPairs)
	for i := range hot {
		hot[i] = uniformPair(r)
	}
	return hot, rand.NewZipf(r, 1.1, 1, hotPairs-1)
}

// TestReplacementQuality: LRU within a 4-way set is not LRU over the
// table, and the price has a bound. On a trace that mixes the
// benchmark's hot set half and half with uniform pairs that are never
// seen again, the hot half hits at least 0.97 as often as under the
// exact LRU of the same capacity.
func TestReplacementQuality(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	hot, zipf := newHotSet(r)
	c, ref := New(binaryEntries), newRefLRU(binaryEntries)
	var hotOps, hits, refHits int
	for op := 0; op < 600000; op++ {
		p, isHot := uniformPair(r), op%2 == 0
		if isHot {
			p = hot[zipf.Uint64()]
		}
		_, ok := c.Get(1, p[0], p[1])
		if !ok {
			c.Put(1, p[0], p[1], 1)
		}
		k := refKey{1, p[0], p[1]}
		_, rok := ref.get(k, true)
		if !rok {
			ref.put(k, 1)
		}
		if isHot && op >= 300000 { // both caches full and churning
			hotOps++
			if ok {
				hits++
			}
			if rok {
				refHits++
			}
		}
	}
	rate, refRate := float64(hits)/float64(hotOps), float64(refHits)/float64(hotOps)
	t.Logf("hot-half hit rate: table %.4f, exact LRU %.4f (ratio %.4f)", rate, refRate, rate/refRate)
	if rate < 0.97*refRate {
		t.Fatalf("hot-half hit rate %.4f < 0.97 x exact LRU's %.4f", rate, refRate)
	}
}

// fakeOracle answers a symmetric f(salt, s, t) and allocates exactly
// the result slice of a batch.
type fakeOracle struct{ salt graph.Dist }

func (f fakeOracle) NumVertices() int { return benchVertices }
func (f fakeOracle) Query(s, t graph.Vertex) graph.Dist {
	return f.salt*1000003 + graph.Dist(s+t)*4001 + graph.Dist(s)*graph.Dist(t)
}
func (f fakeOracle) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	return f.Query(s, t), s
}
func (f fakeOracle) QueryBatch(pairs [][2]graph.Vertex, _ int) []graph.Dist {
	out := make([]graph.Dist, len(pairs))
	for i, p := range pairs {
		out[i] = f.Query(p[0], p[1])
	}
	return out
}

// TestCachedReloadWhileQuerying is the server's reload hammer at this
// package's level: readers query through whichever wrapper is current
// while a publisher swaps in wrappers of later generations whose inner
// oracles answer differently, all sharing one small cache. Every answer
// must be the one its own generation's oracle gives — across the
// generation tag's wrap point too, which the publisher walks through.
func TestCachedReloadWhileQuerying(t *testing.T) {
	c := New(512)
	firstGen := uint64(1)<<tagBits - 20
	wrapAt := func(gen uint64) *Cached {
		return Wrap(fakeOracle{salt: graph.Dist(gen)}, c, gen, Options{Symmetric: true})
	}
	var cur atomic.Pointer[Cached]
	cur.Store(wrapAt(firstGen))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			batch := make([][2]graph.Vertex, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := cur.Load()
				inner := w.Inner()
				for i := range batch {
					batch[i] = [2]graph.Vertex{graph.Vertex(r.Intn(24)), graph.Vertex(r.Intn(24))}
				}
				for i, d := range w.QueryBatch(batch, 1) {
					if want := inner.Query(batch[i][0], batch[i][1]); d != want {
						t.Errorf("gen %d batch %v = %d, want %d", w.Generation(), batch[i], d, want)
						return
					}
				}
				s, u := batch[0][0], batch[0][1]
				if d, want := w.Query(s, u), inner.Query(s, u); d != want {
					t.Errorf("gen %d (%d,%d) = %d, want %d", w.Generation(), s, u, d, want)
					return
				}
			}
		}(int64(g))
	}
	for gen := firstGen + 1; gen < firstGen+40; gen++ {
		for i := 0; i < 200; i++ { // let the readers warm this generation
			w := cur.Load()
			w.Query(graph.Vertex(i%24), graph.Vertex(i%7))
		}
		cur.Store(wrapAt(gen))
	}
	close(stop)
	wg.Wait()
	if st := c.Stats(); st.Hits == 0 || st.Entries > st.Capacity {
		t.Fatalf("stats = %+v, want hits and a fill within the bound", st)
	}
}

var sinkDist graph.Dist

// BenchmarkCache prices the three things the serving path does to the
// cache, at the binary's default size over the benchmark graph's pair
// space: a hit on the Zipf(1.1) hot set, a miss followed by the put
// that evicts (uniform pairs, eight times the capacity of them, so no
// set still holds the next one), and hits from two goroutines at once.
func BenchmarkCache(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	hot, zipf := newHotSet(r)
	draws := make([][2]graph.Vertex, 1<<16)
	for i := range draws {
		draws[i] = hot[zipf.Uint64()]
	}
	warm := func() *Cache {
		c := New(binaryEntries)
		for _, p := range hot {
			c.Put(1, p[0], p[1], 1)
		}
		return c
	}
	hit := func(b *testing.B, c *Cache, n int) {
		for i := 0; i < n; i++ {
			p := draws[i%len(draws)]
			d, ok := c.Get(1, p[0], p[1])
			if !ok {
				b.Error("miss on the warmed hot set")
				return
			}
			sinkDist = d
		}
	}
	b.Run("hit", func(b *testing.B) {
		c := warm()
		b.ReportAllocs()
		b.ResetTimer()
		hit(b, c, b.N)
	})
	b.Run("miss-put", func(b *testing.B) {
		c := New(binaryEntries)
		cold := make([][2]graph.Vertex, 8*binaryEntries)
		for i := range cold {
			cold[i] = uniformPair(r)
			c.Put(1, cold[i][0], cold[i][1], 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := cold[i%len(cold)]
			if _, ok := c.Get(1, p[0], p[1]); !ok {
				c.Put(1, p[0], p[1], 1)
			}
		}
		b.StopTimer()
		if st := c.Stats(); st.Hits*50 > st.Misses {
			b.Fatalf("miss-put row hit the cache: %+v", st)
		}
	})
	b.Run("hit-2goroutines", func(b *testing.B) {
		c := warm()
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hit(b, c, b.N/2)
			}()
		}
		wg.Wait()
	})
}
