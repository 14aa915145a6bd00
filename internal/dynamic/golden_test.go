package dynamic

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/pll"
)

// TestIndexBytesGolden pins the label lists after a serial build and a
// run of insertions to the bytes recorded before the prune scan and the
// finalize were rewritten: resumed searches must prune exactly as
// before, and ToIndex must lay the lists out exactly as before.
func TestIndexBytesGolden(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	const n = 300
	x := Build(randomGraph(r, n, 400), pll.Options{})
	for i := 0; i < 60; i++ {
		u, v := graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))
		if u == v {
			continue
		}
		if err := x.InsertEdge(u, v, graph.Dist(1+r.Intn(20))); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	if err := x.ToIndex().WriteMmap(h); err != nil {
		t.Fatal(err)
	}
	const want = "7978eae48c0bc54ff0a901351a1c4c1683389049f4cee175ca83457c580c7738"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("index of %d entries hashes to %s, want %s", x.NumEntries(), got, want)
	}
}
