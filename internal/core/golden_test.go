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
// both engines at one thread, which all emit the same index — on a p2p
// and a road shape, to two hashes. pidx is of the PIDX stream, a
// vertex's whole label in hub order, recorded (at the parent commit)
// before PIDM had a head: the labels are the ones every build since the
// label store, prune scan and finalize rewrites has produced. pidm is of
// the version 4 PIDM bytes, recorded when distances got a width: where
// the finalize puts each entry, and in how many bytes.
func TestIndexBytesGolden(t *testing.T) {
	for dataset, want := range map[string]struct{ pidx, pidm string }{
		"Gnutella": {"10b08a6878d39cea9f5506f75855445d2e892c6a18c453d864d9e3677dda1102", "2f2ad2ecbfdf3423f53c9b6c2c47a63018470abdcbf1c1b02761f90e8077f19e"},
		"RI-USA":   {"36b58f3503fac56d8e913a566ec01a0daa7a02458212e6ab4f78537c613131e1", "e33f514858a72f6941962fe0d0ab54ff4f61a5795b718d06a71ac04764e28156"},
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
			pidx, pidm := sha256.New(), sha256.New()
			if err := x.Write(pidx); err != nil {
				t.Fatal(err)
			}
			if err := x.WriteMmap(pidm); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", pidx.Sum(nil)); got != want.pidx {
				t.Errorf("%s %s: labels (%d entries) hash to %s as PIDX, want %s", dataset, name, x.NumEntries(), got, want.pidx)
			}
			if got := fmt.Sprintf("%x", pidm.Sum(nil)); got != want.pidm {
				t.Errorf("%s %s: index of %d entries hashes to %s as PIDM, want %s", dataset, name, x.NumEntries(), got, want.pidm)
			}
		}
	}
}
