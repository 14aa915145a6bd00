// Package qcache is a bounded, generation-keyed cache of distance
// answers for the serving hot path. Production query streams repeat:
// the same (s,t) pairs recur across users and requests, and a label
// merge — however fast — still costs O(|L(s)|+|L(t)|) memory traffic,
// so a hit has to cost one cache line, and a miss little more, for the
// cache to be worth fronting a sub-microsecond kernel.
//
// Two properties are load-bearing:
//
//   - Negative caching: graph.Inf ("unreachable") is cached exactly like
//     a finite distance. Disconnected pairs are the most expensive
//     queries (the merge walks both runs to the end finding nothing),
//     so they benefit the most.
//
//   - Generation keying: every entry's key includes the snapshot
//     generation it was computed under. A /reload hot-swap publishes a
//     new generation, so post-swap queries can never hit pre-swap
//     entries — there is no flush to forget and no window to race; the
//     old generation's entries simply age out of their sets. This is the
//     correctness crux and is hammered under -race by the server's
//     reload tests.
//
// The cache is one flat, pointer-free table of 16-byte slots grouped
// into 4-way sets of one cache line each. A key hashes to one set; the
// slots of a set are kept in recency order (slot 0 most recent), so a
// hit moves its slot to the front, an insert pushes the others back and
// drops the last — LRU within the set, no list, no map, nothing for the
// garbage collector to trace. Sets are guarded by striped mutexes.
package qcache

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"parapll/internal/graph"
)

// Counter is the minimal metrics sink for cache events; satisfied by
// *metrics.Counter. Nil counters are skipped.
type Counter interface{ Add(n int64) }

// Stats is a point-in-time view of the cache's cumulative activity.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

const (
	// ways is the set size: 4 slots of 16 bytes fill one cache line.
	ways = 4
	// tagBits is how much of the generation a slot stores; the rest is
	// the shard's epoch (see shard).
	tagBits = 31
)

// slot is one cached answer. tag is the generation's low tagBits bits
// under a set top bit, so zero means empty; the key comparison on a hit
// is exact on (tag, s, t).
type slot struct {
	s, t graph.Vertex
	d    graph.Dist
	tag  uint32
}

// set is one associativity set in recency order: the occupied slots are
// a prefix, most recently used first.
type set [ways]slot

// shard is one lock stripe, padded to a cache line of its own. It
// guards the sets whose index is congruent to its own modulo the shard
// count, every slot of which belongs to generation epoch<<tagBits|tag:
// a put from a later epoch clears the shard first, so a tag can never
// match a generation 2^tagBits away from the one that stored it. The
// event counts live here too, plain words under the lock a lookup
// already holds rather than atomics every core shares.
type shard struct {
	mu                      sync.Mutex
	epoch                   uint64
	hits, misses, evictions uint64
	_                       [24]byte
}

// Cache is the set-associative table. Safe for concurrent use.
type Cache struct {
	sets    []set
	shards  []shard // power-of-two count
	ways    int     // slots in use per set: ways, or fewer in a cache smaller than one set
	entries atomic.Int64

	// Optional live metric sinks (SetCounters), bumped alongside the
	// shards' counts so /metrics sees cache traffic without polling.
	hitC, missC, evictC Counter
}

// New builds a cache that never holds more than `entries` answers:
// entries/4 sets of 4 (the count is rounded down to a multiple of 4),
// or one set of `entries` slots below 4. entries < 1 is clamped to 1.
func New(entries int) *Cache {
	w := min(max(entries, 1), ways)
	nsets := max(entries/ways, 1)
	nshards := 1
	for nshards < 64 && 2*nshards <= nsets {
		nshards <<= 1
	}
	return &Cache{sets: make([]set, nsets), shards: make([]shard, nshards), ways: w}
}

// SetCounters wires optional metric sinks for hits, misses and
// evictions (any may be nil). Call before serving traffic.
func (c *Cache) SetCounters(hits, misses, evictions Counter) {
	c.hitC, c.missC, c.evictC = hits, misses, evictions
}

// add publishes n events the shards have already counted to a sink.
func add(sink Counter, n int) {
	if sink != nil && n > 0 {
		sink.Add(int64(n))
	}
}

// locate hashes the key (splitmix64 finisher) to its set, the shard
// guarding it and the slot tag.
func (c *Cache) locate(gen uint64, s, t graph.Vertex) (set *set, k uint64, tag uint32) {
	h := gen*0x9e3779b97f4a7c15 ^ uint64(uint32(s))<<32 ^ uint64(uint32(t))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	i, _ := bits.Mul64(h, uint64(len(c.sets)))
	return &c.sets[i], i & uint64(len(c.shards)-1), uint32(gen) | 1<<tagBits
}

// get looks (s,t) up under generation gen. A lookup that counts also
// moves a hit to the front of its set; one that does not (Peek) leaves
// no mark at all.
func (c *Cache) get(gen uint64, s, t graph.Vertex, counts bool) (graph.Dist, bool) {
	set, k, tag := c.locate(gen, s, t)
	sh := &c.shards[k]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if gen>>tagBits == sh.epoch {
		for j := 0; j < c.ways; j++ {
			if sl := set[j]; sl.tag == tag && sl.s == s && sl.t == t {
				if counts {
					sh.hits++
					for ; j > 0; j-- {
						set[j] = set[j-1]
					}
					set[0] = sl
				}
				return sl.d, true
			}
		}
	}
	if counts {
		sh.misses++
	}
	return 0, false
}

// put stores the answer at the front of its set, over the same key's
// slot if there is one and else over the last, and reports whether that
// dropped another key's answer.
func (c *Cache) put(gen uint64, s, t graph.Vertex, d graph.Dist) (evicted bool) {
	set, k, tag := c.locate(gen, s, t)
	sh := &c.shards[k]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := gen >> tagBits; e != sh.epoch {
		if e < sh.epoch {
			return false // a straggler from before the wrap: not cached
		}
		c.clear(int(k))
		sh.epoch = e
	}
	j := 0
	for j < c.ways && !(set[j].tag == tag && set[j].s == s && set[j].t == t) {
		j++
	}
	if j == c.ways {
		j--
		if evicted = set[j].tag != 0; evicted {
			sh.evictions++
		} else {
			c.entries.Add(1)
		}
	}
	for ; j > 0; j-- {
		set[j] = set[j-1]
	}
	set[0] = slot{s: s, t: t, d: d, tag: tag}
	return evicted
}

// clear empties shard k's sets; the caller holds its lock.
func (c *Cache) clear(k int) {
	dropped := 0
	for i := k; i < len(c.sets); i += len(c.shards) {
		for _, sl := range c.sets[i] {
			if sl.tag != 0 {
				dropped++
			}
		}
		c.sets[i] = set{}
	}
	c.entries.Add(int64(-dropped))
}

// Get returns the cached distance for (s,t) under generation gen.
// A hit refreshes the entry's recency.
func (c *Cache) Get(gen uint64, s, t graph.Vertex) (graph.Dist, bool) {
	d, ok := c.get(gen, s, t, true)
	if ok {
		add(c.hitC, 1)
	} else {
		add(c.missC, 1)
	}
	return d, ok
}

// Peek reports whether (s,t) under generation gen is cached, without
// refreshing its recency or touching the hit/miss counters — a pure
// diagnostic probe (the /debug/explain cache view) that leaves the
// cache's behavior and statistics exactly as they were.
func (c *Cache) Peek(gen uint64, s, t graph.Vertex) (graph.Dist, bool) {
	return c.get(gen, s, t, false)
}

// Put stores the answer for (s,t) under generation gen, evicting its
// set's least-recently-used entry when the set is full. graph.Inf is a
// valid answer (negative caching).
func (c *Cache) Put(gen uint64, s, t graph.Vertex, d graph.Dist) {
	if c.put(gen, s, t, d) {
		add(c.evictC, 1)
	}
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// Capacity returns the most entries the cache can hold.
func (c *Cache) Capacity() int { return len(c.sets) * c.ways }

// Stats returns cumulative hit/miss/eviction counts and current fill.
func (c *Cache) Stats() Stats {
	st := Stats{Entries: c.Len(), Capacity: c.Capacity()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		sh.mu.Unlock()
	}
	return st
}
