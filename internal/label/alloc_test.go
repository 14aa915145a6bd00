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

// TestStoreAppendZeroAllocs: an append into a list with a free slot
// writes the slot and publishes the length, nothing else.
func TestStoreAppendZeroAllocs(t *testing.T) {
	s := NewStore(1)
	const runs = 500
	s.BulkAppend(0, make([]Entry, runs+2)) // leaves as many slots free
	if allocs := testing.AllocsPerRun(runs, func() { s.Append(0, 1, 1) }); allocs != 0 {
		t.Fatalf("non-growing Append allocates %.2f times", allocs)
	}
	if s.Len(0) != 2*runs+3 {
		t.Fatalf("Len = %d after %d appends", s.Len(0), runs+1)
	}
}
