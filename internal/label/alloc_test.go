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

// TestQueryAllocsZero guards the tentpole's "hot kernel untouched"
// criterion from inside the label package: adding the explain sibling
// must leave Query and QueryWithHub at zero allocations per call.
func TestQueryAllocsZero(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 64
	s := NewStore(n)
	for v := 0; v < n; v++ {
		for k := 0; k < 24; k++ {
			s.Append(graph.Vertex(v), graph.Vertex(r.Intn(n)), graph.Dist(r.Intn(1000)+1))
		}
	}
	x := NewIndex(s)

	if a := testing.AllocsPerRun(200, func() {
		allocSinkDist = x.Query(3, 41)
	}); a != 0 {
		t.Fatalf("Query allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		allocSinkDist, allocSinkHub = x.QueryWithHub(3, 41)
	}); a != 0 {
		t.Fatalf("QueryWithHub allocates %.1f/op, want 0", a)
	}
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
