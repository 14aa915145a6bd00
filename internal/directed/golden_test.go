package directed

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/label"
)

// TestIndexBytesGolden pins the serial directed index to the bytes
// recorded before the label store and the prune scan were rewritten: a
// deterministic build must not notice either.
func TestIndexBytesGolden(t *testing.T) {
	x := Build(randomDigraph(rand.New(rand.NewSource(32)), 300, 1500), Options{})
	h := sha256.New()
	// The stream the hash was recorded over: per side (in, then out) and
	// vertex, the list length, then its (hub, d) pairs.
	for _, side := range []*label.Index{x.in, x.out} {
		for v := 0; v < side.NumVertices(); v++ {
			hubs, dists := side.Label(graph.Vertex(v), nil, nil)
			list := make([]label.Entry, len(hubs))
			for i := range hubs {
				list[i] = label.Entry{Hub: hubs[i], D: dists[i]}
			}
			if err := binary.Write(h, binary.LittleEndian, int64(len(list))); err != nil {
				t.Fatal(err)
			}
			if err := binary.Write(h, binary.LittleEndian, list); err != nil {
				t.Fatal(err)
			}
		}
	}
	const want = "7b46933595645d07a9684707894644b34bf73e48430be506a68998184b3aadba"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("index of %d entries hashes to %s, want %s", x.NumEntries(), got, want)
	}
}
