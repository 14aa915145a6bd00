package qcache

import (
	"sync"

	"parapll/internal/graph"
	"parapll/internal/oracle"
)

// Options configures a cached oracle wrapper.
type Options struct {
	// Symmetric canonicalizes pairs (s,t) and (t,s) to one cache entry,
	// which every index here allows: they all answer undirected distances.
	// Left false, (s,t) and (t,s) are cached apart.
	Symmetric bool
}

// Cached wraps an oracle with a generation-keyed distance cache. It
// implements oracle.Oracle itself, so it drops into the server's
// snapshot seam: Publish wraps each new snapshot's index with that
// snapshot's generation, and the shared Cache can never leak answers
// across generations.
type Cached struct {
	inner oracle.Oracle
	cache *Cache
	gen   uint64
	opt   Options
}

// Wrap returns inner served through c under generation gen.
func Wrap(inner oracle.Oracle, c *Cache, gen uint64, opt Options) *Cached {
	return &Cached{inner: inner, cache: c, gen: gen, opt: opt}
}

// Inner returns the wrapped oracle.
func (o *Cached) Inner() oracle.Oracle { return o.inner }

// Generation returns the snapshot generation keying this wrapper's
// entries.
func (o *Cached) Generation() uint64 { return o.gen }

// NumVertices returns the size of the indexed vertex set.
func (o *Cached) NumVertices() int { return o.inner.NumVertices() }

// canon maps a pair to its cache key order.
func (o *Cached) canon(s, t graph.Vertex) (graph.Vertex, graph.Vertex) {
	if o.opt.Symmetric && s > t {
		return t, s
	}
	return s, t
}

// Query returns the exact distance, from cache when possible. Both
// reachable distances and graph.Inf are cached (negative caching).
func (o *Cached) Query(s, t graph.Vertex) graph.Dist {
	d, _ := o.QueryNote(s, t)
	return d
}

// QueryNote is Query plus a hit report: whether the answer came from
// the cache. The serving layer notes it in the request span.
func (o *Cached) QueryNote(s, t graph.Vertex) (graph.Dist, bool) {
	cs, ct := o.canon(s, t)
	if d, ok := o.cache.Get(o.gen, cs, ct); ok {
		return d, true
	}
	d := o.inner.Query(s, t)
	o.cache.Put(o.gen, cs, ct, d)
	return d, false
}

// Peek reports the cached answer for (s,t) under this wrapper's
// generation without disturbing recency or counters (see Cache.Peek).
// Pair canonicalization matches Query's.
func (o *Cached) Peek(s, t graph.Vertex) (graph.Dist, bool) {
	cs, ct := o.canon(s, t)
	return o.cache.Peek(o.gen, cs, ct)
}

// QueryWithHub delegates to the inner oracle: the cache stores
// distances only, and hub queries are rare (diagnostics, path
// reconstruction) next to plain distance traffic.
func (o *Cached) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	return o.inner.QueryWithHub(s, t)
}

// batchBuf is reusable miss-collection scratch for QueryBatch.
type batchBuf struct {
	idx   []int
	pairs [][2]graph.Vertex
}

var batchScratch = sync.Pool{New: func() any { return new(batchBuf) }}

// QueryBatch serves each pair from the cache and forwards only the
// misses, as one batch, to the inner oracle's batch path — so a warm
// batch costs set probes instead of label scans, and the misses are what
// the inner kernel gets to group by source. Hits, misses and evictions
// reach the metric sinks once per batch, not once per pair. Miss
// bookkeeping reuses pooled scratch, and a batch with no hit at all (the
// cold, uniform case) returns the inner oracle's result slice as its
// own: steady state allocates one result slice there, two when hits and
// misses mix.
func (o *Cached) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	var out []graph.Dist // made at the first hit
	buf := batchScratch.Get().(*batchBuf)
	missIdx := buf.idx[:0]
	missPairs := buf.pairs[:0]
	for i, p := range pairs {
		cs, ct := o.canon(p[0], p[1])
		if d, ok := o.cache.get(o.gen, cs, ct, true); ok {
			if out == nil {
				out = make([]graph.Dist, len(pairs))
			}
			out[i] = d
		} else {
			missIdx = append(missIdx, i)
			missPairs = append(missPairs, p)
		}
	}
	evictions := 0
	if len(missIdx) > 0 {
		md := o.inner.QueryBatch(missPairs, threads)
		for k, p := range missPairs {
			cs, ct := o.canon(p[0], p[1])
			if o.cache.put(o.gen, cs, ct, md[k]) {
				evictions++
			}
		}
		if out == nil {
			out = md // every pair missed: md is already in pairs' order
		} else {
			for k, i := range missIdx {
				out[i] = md[k]
			}
		}
	}
	add(o.cache.hitC, len(pairs)-len(missIdx))
	add(o.cache.missC, len(missIdx))
	add(o.cache.evictC, evictions)
	buf.idx, buf.pairs = missIdx[:0], missPairs[:0]
	batchScratch.Put(buf)
	return out
}

// The wrapper must satisfy the interface it fronts.
var _ oracle.Oracle = (*Cached)(nil)
