package label

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"parapll/internal/graph"
)

// Index is the immutable, query-optimized form of a label set. Per-vertex
// entries are stored in one flat, hub-sorted, deduplicated array, so a
// distance query is a single merge-intersection of two sorted runs —
// exactly the paper's QUERY(s,t,L) = min over common hubs u of
// σ(P(u,s)) + σ(P(u,t)).
//
// Invariant: every hub id is a vertex of the index, 0 <= hub <
// NumVertices(). finalize (NewIndex, NewIndexFromLists) panics on a list
// that breaks it and the stream readers reject such a file, each while
// making the one pass over the entries it makes anyway. Open does not
// look — that is its point — so a damaged PIDM file can carry a foreign
// hub id past it: Query then merges it like any other number, and
// QueryBatch, whose dense scratch is sized by NumVertices(), panics on
// its bounds-checked index (and drops that scratch).
//
// The arrays either live on the heap (built or stream-decoded indexes)
// or alias a read-only file mapping (Open); queries are identical
// either way.
//
// Memory model for mmap-backed indexes: the aliased slices point into
// non-heap memory, so holding one does NOT keep the mapping alive —
// only a reference to the Index (which owns mm) does. A precise GC may
// otherwise collect the Index after its last syntactic use, run the
// mapping finalizer and unmap mid-read. Every method that dereferences
// the arrays therefore ends with runtime.KeepAlive(x); code outside
// this package that retains the slices returned by Label must keep the
// Index reachable the same way for as long as it reads them.
type Index struct {
	off   []int64        // len n+1
	hubs  []graph.Vertex // flat, sorted by hub within each vertex run
	dists []graph.Dist

	format string   // Format* constant; "" means FormatMemory
	mm     *mapping // non-nil when the arrays alias a file (see Open)

	// scratch pools *batchScratch for QueryBatch and its workers: a
	// sync.Pool, so it holds about one per concurrently running worker
	// and the collector takes back what a quiet period leaves idle.
	scratch sync.Pool
}

// Format reports where this index came from: FormatMemory for indexes
// built in process, else the on-disk format it was loaded from
// (FormatFixed, FormatCompact or FormatMmap).
func (x *Index) Format() string {
	if x.format == "" {
		return FormatMemory
	}
	return x.format
}

// Mapped reports whether the index arrays alias a live file mapping
// (true zero-copy — only on unix; the non-unix Open fallback and the
// stream readers are heap-backed).
func (x *Index) Mapped() bool { return x.mm != nil && x.mm.mapped }

// Close releases the file mapping backing an Open'd index. The index
// must not be queried afterwards; callers that cannot prove quiescence
// (e.g. a server hot-swapping snapshots) should instead drop all
// references and let the mapping's finalizer unmap. Close on a
// heap-backed index is a no-op.
func (x *Index) Close() error {
	if x.mm == nil {
		return nil
	}
	mm := x.mm
	x.mm = nil
	runtime.SetFinalizer(mm, nil)
	return mm.close()
}

// NewIndex finalizes a Store into an Index: every label list is sorted by
// hub id and duplicate hubs are collapsed to their minimum distance. The
// store is read, not consumed; it must be quiescent (no appends racing
// the finalize).
func NewIndex(s *Store) *Index {
	return finalize(s.NumVertices(), s.TotalEntries(), func(v int) []Entry { return s.Snapshot(graph.Vertex(v)) })
}

// NewIndexFromLists finalizes per-vertex label lists (as built by the
// serial PLL, which needs no concurrent Store) into an Index. Each list is
// sorted by hub and deduplicated to its minimum distance, like NewIndex.
func NewIndexFromLists(lists [][]Entry) *Index {
	var total int64
	for _, l := range lists {
		total += int64(len(l))
	}
	return finalize(len(lists), total, func(v int) []Entry { return lists[v] })
}

// finalize streams n label lists holding total entries into the flat
// arrays: each list is copied into one reused scratch buffer, sorted and
// deduplicated there and written to its final position, so beside the
// source lists only the result is ever live. The arrays are sized for
// total and trimmed by the (few) duplicates dropped. A hub outside
// [0,n) is a builder's bug and panics (the Index invariant).
func finalize(n int, total int64, list func(v int) []Entry) *Index {
	idx := &Index{
		off:   make([]int64, n+1),
		hubs:  make([]graph.Vertex, total),
		dists: make([]graph.Dist, total),
	}
	var scratch []Entry
	pos := 0
	for v := 0; v < n; v++ {
		scratch = append(scratch[:0], list(v)...)
		for _, e := range sortDedupe(scratch) {
			if uint(e.Hub) >= uint(n) {
				panic(fmt.Sprintf("label: vertex %d has hub %d outside [0,%d)", v, e.Hub, n))
			}
			idx.hubs[pos], idx.dists[pos] = e.Hub, e.D
			pos++
		}
		idx.off[v+1] = int64(pos)
	}
	idx.hubs, idx.dists = idx.hubs[:pos:pos], idx.dists[:pos:pos]
	return idx
}

// SortDedupe returns a copy of one label list sorted by hub with
// duplicate hubs collapsed to their minimum distance — the strictly
// hub-increasing form every merge kernel requires.
func SortDedupe(l []Entry) []Entry {
	list := make([]Entry, len(l))
	copy(list, l)
	return sortDedupe(list)
}

// sortDedupe is SortDedupe in place: it reorders list and returns the
// deduplicated prefix.
func sortDedupe(list []Entry) []Entry {
	slices.SortFunc(list, func(a, b Entry) int {
		if c := cmp.Compare(a.Hub, b.Hub); c != 0 {
			return c
		}
		return cmp.Compare(a.D, b.D)
	})
	out := list[:0]
	for _, e := range list {
		if len(out) > 0 && out[len(out)-1].Hub == e.Hub {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Equal reports whether two indexes hold identical label data
// (offsets, hubs and distances), regardless of storage backing (heap or
// mmap) and origin format. This is the invariant the cross-format
// round-trip tests assert.
func (x *Index) Equal(y *Index) bool {
	eq := slices.Equal(x.off, y.off) &&
		slices.Equal(x.hubs, y.hubs) &&
		slices.Equal(x.dists, y.dists)
	runtime.KeepAlive(x)
	runtime.KeepAlive(y)
	return eq
}

// NumVertices returns the number of labeled vertices.
func (x *Index) NumVertices() int { return len(x.off) - 1 }

// NumEntries returns the total number of label entries.
func (x *Index) NumEntries() int64 {
	total := x.off[len(x.off)-1]
	runtime.KeepAlive(x) // x.off may alias a finalizer-managed mapping
	return total
}

// AvgLabelSize returns the mean entries per vertex — the paper's LN metric
// reported in Tables 3–5.
func (x *Index) AvgLabelSize() float64 {
	n := x.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(x.NumEntries()) / float64(n)
}

// MemoryBytes returns the in-memory footprint of the index's arrays
// (offsets + hubs + distances). The paper reports this linear-in-(n·LN)
// quantity peaking at 2.2 GB in its evaluation.
func (x *Index) MemoryBytes() int64 {
	return int64(len(x.off))*8 + int64(len(x.hubs))*4 + int64(len(x.dists))*4
}

// LabelSize returns |L(v)|.
func (x *Index) LabelSize(v graph.Vertex) int {
	size := int(x.off[v+1] - x.off[v])
	runtime.KeepAlive(x)
	return size
}

// Label returns v's entries (hub-sorted). The slices alias internal
// storage and must not be modified; for a possibly mmap-backed index
// the caller must also keep x reachable (runtime.KeepAlive) for as long
// as it reads them — see the Index memory-model comment.
func (x *Index) Label(v graph.Vertex) ([]graph.Vertex, []graph.Dist) {
	lo, hi := x.off[v], x.off[v+1]
	hubs, dists := x.hubs[lo:hi], x.dists[lo:hi]
	runtime.KeepAlive(x)
	return hubs, dists
}

// checkPair validates a query pair, panicking with a descriptive
// message for out-of-range ids. The check is uniform: an out-of-range s
// or t panics whether or not s == t. (Previously s == t short-circuited
// to 0 before any bounds check, so an out-of-range pair with equal ids
// silently "succeeded" while an unequal one crashed with a raw
// slice-index panic.) The panic itself lives in a cold helper so this
// check stays under the inlining budget — it runs once per query on the
// hot path.
// The fast path folds both bounds checks into one compare: for
// non-negative ids, s|t < n implies both are in range, and a negative
// id turns the unsigned compare huge. The compare can fire spuriously
// (s|t can exceed max(s,t) — e.g. 1|2 = 3), so the cold path re-checks
// precisely and simply returns for such false alarms.
func (x *Index) checkPair(s, t graph.Vertex) {
	if uint32(s)|uint32(t) >= uint32(len(x.off)-1) {
		checkPairSlow(s, t, len(x.off)-1)
	}
}

func checkPairSlow(s, t graph.Vertex, n int) {
	if uint(s) >= uint(n) || uint(t) >= uint(n) {
		panic(fmt.Sprintf("label: query pair (%d,%d) out of range [0,%d)", s, t, n))
	}
}

// runs cuts the label runs of s and t out of the flat arrays — the ramp
// every query shape shares, small enough to inline into each. The pin
// here covers the offset reads only: the returned slices alias x's
// possibly-mmap'd arrays, so the caller pins x again after its last
// read of them (the same contract as Label).
func (x *Index) runs(s, t graph.Vertex) (ah []graph.Vertex, ad []graph.Dist, bh []graph.Vertex, bd []graph.Dist) {
	slo, shi := x.off[s], x.off[s+1]
	tlo, thi := x.off[t], x.off[t+1]
	runtime.KeepAlive(x)
	return x.hubs[slo:shi], x.dists[slo:shi], x.hubs[tlo:thi], x.dists[tlo:thi]
}

// Query returns the shortest-path distance between s and t, or graph.Inf
// if no common hub covers the pair (disconnected). Complexity is
// O(|L(s)| + |L(t)|), dropping to O(min·log(max/min)) for strongly
// asymmetric label lists via the galloping merge. It allocates nothing.
// Out-of-range ids panic with a descriptive message (consistently —
// including when s == t).
func (x *Index) Query(s, t graph.Vertex) graph.Dist {
	x.checkPair(s, t)
	if s == t {
		return 0
	}
	ah, ad, bh, bd := x.runs(s, t)
	d, _ := merge[distOnly](ah, ad, bh, bd, nil)
	runtime.KeepAlive(x) // the merge reads slices aliasing x's mapping
	return d
}

// QueryWithHub is Query but also reports the meeting hub achieving the
// minimum (useful for path reconstruction and diagnostics). hub is -1 when
// the pair is disconnected; for s == t it returns (0, s). Out-of-range
// ids panic exactly as in Query.
func (x *Index) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	x.checkPair(s, t)
	if s == t {
		return 0, s
	}
	ah, ad, bh, bd := x.runs(s, t)
	d, hub := merge[withHub](ah, ad, bh, bd, nil)
	runtime.KeepAlive(x)
	return d, hub
}

// LabelSizeHistogram returns counts of vertices by label-list length,
// as parallel (size, count) slices sorted by size.
func (x *Index) LabelSizeHistogram() (sizes []int, counts []int) {
	m := make(map[int]int)
	for v := 0; v < x.NumVertices(); v++ {
		m[x.LabelSize(graph.Vertex(v))]++
	}
	for s := range m {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	counts = make([]int, len(sizes))
	for i, s := range sizes {
		counts[i] = m[s]
	}
	return sizes, counts
}
