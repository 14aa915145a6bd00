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
// run of insertions: resumed searches must prune exactly as before —
// the PIDX hash, of whole labels in hub order, was recorded (at the
// parent commit) before PIDM had a head — and ToIndex must lay the lists
// out as it did when distances got a width, the version 4 PIDM hash.
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
	pidx, pidm := sha256.New(), sha256.New()
	if err := x.ToIndex().Write(pidx); err != nil {
		t.Fatal(err)
	}
	if err := x.ToIndex().WriteMmap(pidm); err != nil {
		t.Fatal(err)
	}
	const wantPIDX = "6b0db95f4b05529f67079ae5258dc8d5737b4b702102d1df68c40e8ce43d8752"
	if got := fmt.Sprintf("%x", pidx.Sum(nil)); got != wantPIDX {
		t.Fatalf("labels (%d entries) hash to %s as PIDX, want %s", x.NumEntries(), got, wantPIDX)
	}
	const wantPIDM = "9c01cd87595d8a708eacc713294fada169c9a18a094bb2ec7f2204cfdfe2de60"
	if got := fmt.Sprintf("%x", pidm.Sum(nil)); got != wantPIDM {
		t.Fatalf("index of %d entries hashes to %s as PIDM, want %s", x.NumEntries(), got, wantPIDM)
	}
}
