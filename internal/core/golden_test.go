package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// TestIndexBytesGolden pins the deterministic builds — serial PLL and
// both engines at one thread, which all emit the same index — to the
// PIDM bytes recorded before the label store, the prune scan and the
// finalize were rewritten, on a p2p and a road shape.
func TestIndexBytesGolden(t *testing.T) {
	for dataset, want := range map[string]string{
		"Gnutella": "1ac9bf038389e6a3f6c60580d97f7bfa2a61c73962f4c1db30107738754ff72f",
		"RI-USA":   "7087867f3b63b17d67f7d22172878e316409490a380d1a0ca4f5a072af2d0e85",
	} {
		rec, err := gen.FindRecipe(dataset)
		if err != nil {
			t.Fatal(err)
		}
		g := rec.Generate(0.05)
		for name, x := range map[string]*label.Index{
			"pll.Build":       pll.Build(g, pll.Options{}),
			"Build/perroot/1": Build(g, Options{Threads: 1}),
			"Build/batched/1": Build(g, Options{Threads: 1, Engine: Batched{}}),
			"Build/dynamic/1": Build(g, Options{Threads: 1, Policy: Dynamic}),
		} {
			h := sha256.New()
			if err := x.WriteMmap(h); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
				t.Errorf("%s %s: index of %d entries hashes to %s, want %s", dataset, name, x.NumEntries(), got, want)
			}
		}
	}
}
