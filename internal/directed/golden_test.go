package directed

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"parapll/internal/label"
)

// TestIndexBytesGolden pins the serial directed index to the bytes
// recorded before the label store and the prune scan were rewritten: a
// deterministic build must not notice either.
func TestIndexBytesGolden(t *testing.T) {
	x := Build(randomDigraph(rand.New(rand.NewSource(32)), 300, 1500), Options{})
	h := sha256.New()
	for _, side := range [][][]label.Entry{x.in, x.out} {
		for _, list := range side {
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
