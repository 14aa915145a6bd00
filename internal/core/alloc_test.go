//go:build !race

// AllocsPerRun is meaningless under the race detector (its
// instrumentation allocates).

package core

import (
	"testing"

	"parapll/internal/gen"
	"parapll/internal/label"
)

// TestBuildAllocsPerEntry bounds what a whole parallel build allocates
// per label entry it produces. The store's backing arrays grow
// geometrically and publish a length, not a header, so the count is
// dominated by regrowths (a few per vertex); a store that allocates per
// append sits above 1.
func TestBuildAllocsPerEntry(t *testing.T) {
	rec, err := gen.FindRecipe("Gnutella")
	if err != nil {
		t.Fatal(err)
	}
	g := rec.Generate(0.1)
	var x *label.Index
	allocs := testing.AllocsPerRun(1, func() { x = Build(g, Options{Threads: 2, Policy: Dynamic}) })
	perEntry := allocs / float64(x.NumEntries())
	t.Logf("n=%d entries=%d: %.0f allocations, %.3f per entry", g.NumVertices(), x.NumEntries(), allocs, perEntry)
	if perEntry > 0.1 {
		t.Fatalf("build allocates %.3f times per label entry, want <= 0.1", perEntry)
	}
}
