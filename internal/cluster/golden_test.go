package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/label"
)

// TestIndexBytesGolden pins the cluster build at one thread per rank,
// which is byte-deterministic: three ranks on CondMat at c = 8 must each
// write the same PIDM bytes, and those bytes must not move when the
// search kernel under them (heap, prune test) changes. The chan and the
// TCP transport must deliver the same frames in the same order, so both
// legs pin the one hash.
func TestIndexBytesGolden(t *testing.T) {
	rec, err := gen.FindRecipe("CondMat")
	if err != nil {
		t.Fatal(err)
	}
	g := rec.Generate(0.05)
	opt := Options{Threads: 1, SyncCount: 8}
	const want = "0449f36944b59be0c39ac46988e57ca6adfc12b1f4b09735965095c4a071f32e"
	check := func(t *testing.T, idxs []*label.Index, err error) {
		if err != nil {
			t.Fatal(err)
		}
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
	t.Run("chan", func(t *testing.T) {
		idxs, _, err := RunLocal(g, 3, opt)
		check(t, idxs, err)
	})
	t.Run("tcp", func(t *testing.T) {
		idxs, err := runTCP(t, g, 3, opt)
		check(t, idxs, err)
	})
}
