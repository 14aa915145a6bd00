package dynamic

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// TestIndexBytesGolden pins the label lists after a serial build and a
// run of insertions: resumed searches must prune exactly as before —
// the labels' hash (labelsHash), of whole labels in hub order, was
// recorded under the residual weighted-degree sequence — and
// ToIndex must lay the lists out as version 5 PIDM does, the PIDM hash of
// the same labels — and so must the frozen lists streamed into a file
// through fileio, as a compaction's fold writes them.
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
	pidm := sha256.New()
	if err := x.ToIndex().WriteMmap(pidm); err != nil {
		t.Fatal(err)
	}
	const wantLabels = "0f3b260174ad063ca82c1808640168b1172bb6fda1829ac268ed43dda329f5e0"
	if got := labelsHash(x.ToIndex()); got != wantLabels {
		t.Fatalf("labels (%d entries) hash to %s, want %s", x.NumEntries(), got, wantLabels)
	}
	const wantPIDM = "fbf1023a8333bca10c40f27b98977972644f95588b12b8d4a2b0f835c6966598"
	if got := fmt.Sprintf("%x", pidm.Sum(nil)); got != wantPIDM {
		t.Fatalf("index of %d entries hashes to %s as PIDM, want %s", x.NumEntries(), got, wantPIDM)
	}
	path := filepath.Join(t.TempDir(), "streamed.midx")
	if _, err := fileio.SaveLabels(fileio.OS, path, n, x.Freeze()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != wantPIDM {
		t.Fatalf("streamed file of %d entries hashes to %s, want %s", x.NumEntries(), got, wantPIDM)
	}
}

// labelsHash is the SHA-256 of x's labels laid out as the retired
// fixed-width index format wrote them, so the hash recorded from that
// writer still pins them: its magic and version 1, n, the entry count,
// n+1 running label sizes as uint64s, every label's (hub, distance) pairs
// in hub order as uint32s, and a CRC-32 of all that. (core's golden test
// has the same helper.)
func labelsHash(x *label.Index) string {
	le := binary.LittleEndian
	n := x.NumVertices()
	b := le.AppendUint32([]byte{'P', 'I', 'D', 'X'}, 1)
	b = le.AppendUint64(le.AppendUint32(b, uint32(n)), uint64(x.NumEntries()))
	b = le.AppendUint64(b, 0)
	var off uint64
	for v := 0; v < n; v++ {
		off += uint64(x.LabelSize(graph.Vertex(v)))
		b = le.AppendUint64(b, off)
	}
	var hubs []graph.Vertex
	var dists []graph.Dist
	for v := 0; v < n; v++ {
		hubs, dists = x.Label(graph.Vertex(v), hubs, dists)
		for i, h := range hubs {
			b = le.AppendUint32(le.AppendUint32(b, uint32(h)), uint32(dists[i]))
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(le.AppendUint32(b, crc32.ChecksumIEEE(b))))
}
