//go:build !race

// Allocation gates. AllocsPerRun is meaningless under the race detector (its
// instrumentation allocates), mirroring internal/bench's gating.

package label

import (
	"math/rand"
	"testing"

	"parapll/internal/graph"
)

var allocSinkDist graph.Dist
var allocSinkHub graph.Vertex

// TestQueryAllocsZero holds every instantiation of the merge kernel and
// of midMin at zero allocations per call, on an index with all three
// tiers. For QueryExplain that is the claim that &ex does not escape
// through the generic calls: the counting mode writes its counters into
// the caller's frame.
func TestQueryAllocsZero(t *testing.T) {
	x := tieredTestIndex(rand.New(rand.NewSource(7)), 400)
	if ex := x.QueryExplain(5, 41); ex.HeadSlots == 0 || ex.MidHits == 0 || ex.HubsProbed == 0 {
		t.Fatalf("the pair does not reach all three kernels: %+v", ex)
	}
	ah, ad := x.Label(5, nil, nil)
	bh, bd := x.Label(41, nil, nil)

	for _, c := range []struct {
		shape string
		call  func()
	}{
		{"Query", func() { allocSinkDist = x.Query(5, 41) }},
		{"QueryWithHub", func() { allocSinkDist, allocSinkHub = x.QueryWithHub(5, 41) }},
		{"QueryExplain", func() { allocSinkDist = x.QueryExplain(5, 41).Dist }},
		{"MergeRuns", func() { allocSinkDist, allocSinkHub = MergeRuns(ah, ad, bh, bd) }},
		{"HubDist", func() { allocSinkDist = x.HubDist(5, bh[0]) }},
	} {
		if a := testing.AllocsPerRun(200, c.call); a != 0 {
			t.Fatalf("%s allocates %.1f/op, want 0", c.shape, a)
		}
	}
}

// TestQueryBatchAllocsOne: a batch that fits one chunk allocates its
// result slice and nothing else — sort keys and the dense hub array come
// from the index's pool, and the inline path builds no closure.
func TestQueryBatchAllocsOne(t *testing.T) {
	x := tieredTestIndex(rand.New(rand.NewSource(11)), 400)
	pairs4 := [][2]graph.Vertex{{5, 41}, {9, 2}, {5, 7}, {60, 60}}
	var out []graph.Dist
	if a := testing.AllocsPerRun(200, func() { out = x.QueryBatch(pairs4, 1) }); a > 1 {
		t.Fatalf("QueryBatch(4 pairs, 1) allocates %.1f/op, want <= 1", a)
	}
	allocSinkDist = out[0]
}

// filled is how many entries segments 0..k-1 of a store's list hold.
func filled(k int) int { return 4 * (1<<k - 1) }

// TestStoreAppendZeroAllocs: an append into a list with a free slot
// writes the slot and publishes the length, nothing else. The pre-fill
// links segment 7 (512 slots) and takes one of them, so neither
// AllocsPerRun's warm-up call nor any of the measured ones crosses a
// segment boundary.
func TestStoreAppendZeroAllocs(t *testing.T) {
	const runs, k = 500, 7
	s := NewStore(2)
	s.BulkAppend(0, make([]Entry, filled(k)+1))
	if allocs := testing.AllocsPerRun(runs, func() { s.Append(0, 1, 1) }); allocs != 0 {
		t.Fatalf("non-growing Append allocates %.2f times", allocs)
	}
	if want := filled(k) + 1 + runs + 1; s.Len(0) != want || want > filled(k+1) {
		t.Fatalf("Len = %d after %d appends, want %d within segment %d", s.Len(0), runs+1, want, k)
	}
	if s.Wide() != 0 {
		t.Fatalf("Wide = %d: the appends left the word path", s.Wide())
	}
}

// TestStoreAppendAtABoundary: the append past a full list allocates its
// new segment and nothing else, plus, the first time any list reaches
// segment 7, the store's level of pointers to it, one array that
// Store.far points into. The pre-fill leaves one slot free, which
// AllocsPerRun's warm-up call takes; its one measured call crosses the
// boundary.
func TestStoreAppendAtABoundary(t *testing.T) {
	for _, c := range []struct {
		k    int
		want float64
	}{{6, 1}, {7, 2}} {
		s := NewStore(2)
		s.BulkAppend(0, make([]Entry, filled(c.k)-1))
		if allocs := testing.AllocsPerRun(1, func() { s.Append(0, 1, 1) }); allocs != c.want {
			t.Errorf("the append linking segment %d allocates %.0f times, want %.0f", c.k, allocs, c.want)
		}
		if s.Len(0) != filled(c.k)+1 {
			t.Errorf("Len = %d, want %d", s.Len(0), filled(c.k)+1)
		}
		if s.Wide() != 0 {
			t.Errorf("segment %d: Wide = %d: the appends left the word path", c.k, s.Wide())
		}
	}
}

// TestStoreWideAppendAllocs: a non-growing append allocates nothing
// whether its entry fits a word or is kept whole, but for the wide
// tables: the store's first wide entry allocates the table pointers and
// its vertex's table, which holds the table's first segment; a later
// vertex's first one its table; and one past a full segment the next, a
// link and an array. (TestStoreAppendZeroAllocs holds the word path
// over 500 appends, with Wide at 0; the narrow row here is one of them.)
// The list has free slots throughout, so only the wide table can grow.
func TestStoreWideAppendAllocs(t *testing.T) {
	const wide = graph.Dist(1)<<31 - 1 // the first distance a word of NewStore(2) cannot hold
	for _, c := range []struct {
		name  string
		pre   int           // wide entries in L(0) before the two calls
		other bool          // L(1) holds a wide entry before them
		calls [2]graph.Dist // AllocsPerRun's warm-up call, then its measured one
		want  float64
	}{
		{"narrow entry", 0, false, [2]graph.Dist{1, 1}, 0},
		{"the store's first wide entry", 0, false, [2]graph.Dist{1, wide}, 2},
		{"a vertex's first wide entry", 0, true, [2]graph.Dist{1, wide}, 1},
		{"wide entry in a free table slot", 1, false, [2]graph.Dist{wide, wide}, 0},
		{"wide entry linking table segment 1", 3, false, [2]graph.Dist{wide, wide}, 2},
	} {
		s := NewStore(2)
		s.BulkAppend(0, make([]Entry, filled(7)+1))
		for range c.pre {
			s.Append(0, 1, wide)
		}
		if c.other {
			s.Append(1, 1, wide)
		}
		i := 0
		if allocs := testing.AllocsPerRun(1, func() { s.Append(0, 1, c.calls[i]); i++ }); allocs != c.want {
			t.Errorf("%s: the append allocates %.0f times, want %.0f", c.name, allocs, c.want)
		}
		want := c.pre
		if c.other {
			want++
		}
		for _, d := range c.calls {
			if d == wide {
				want++
			}
		}
		if s.Wide() != int64(want) {
			t.Errorf("%s: Wide = %d, want %d", c.name, s.Wide(), want)
		}
	}
}
