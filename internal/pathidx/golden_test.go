package pathidx

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// TestIndexBytesGolden pins the one-thread index, predecessors included,
// to the bytes recorded before the label store and the prune scan were
// rewritten: a deterministic build must not notice either.
func TestIndexBytesGolden(t *testing.T) {
	x := Build(randomGraph(rand.New(rand.NewSource(31)), 300, 500), Options{Threads: 1})
	h := sha256.New()
	for _, arr := range []any{x.off, x.hubs, x.dists, x.parents} {
		if err := binary.Write(h, binary.LittleEndian, arr); err != nil {
			t.Fatal(err)
		}
	}
	const want = "58b5603e2f2b4b059c4d0d65d9271b9ba42ab79f89c10fa0ecad8f7b79de398a"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("index of %d entries hashes to %s, want %s", x.NumEntries(), got, want)
	}
}
