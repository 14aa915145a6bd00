package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"parapll/internal/gen"
)

// TestIndexBytesGolden pins the cluster build at one thread per rank,
// which is byte-deterministic: three chan-transport ranks on CondMat at
// c = 8 must each write the same PIDM bytes, and those bytes must not
// move when the search kernel under them (heap, prune test) changes.
func TestIndexBytesGolden(t *testing.T) {
	rec, err := gen.FindRecipe("CondMat")
	if err != nil {
		t.Fatal(err)
	}
	idxs, _, err := RunLocal(rec.Generate(0.05), 3, Options{Threads: 1, SyncCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	const want = "6d6efde571c2833507183ac137374497d64b9dc6233a252985cd2998392eed35"
	for r, x := range idxs {
		h := sha256.New()
		if err := x.WriteMmap(h); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("rank %d: index of %d entries hashes to %s as PIDM, want %s", r, x.NumEntries(), got, want)
		}
	}
}
