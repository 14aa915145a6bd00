package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"parapll/internal/fileio"
	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// TestIndexBytesGolden pins the deterministic builds — serial PLL and
// both engines at one thread, which all emit the same index — on a p2p
// and a road shape, to two hashes. pidx is of the labels alone, each
// vertex's whole label in hub order (labelsHash), recorded (at the
// parent commit) before PIDM had a head: the labels are the ones every
// build since the label store, prune scan and finalize rewrites has
// produced. pidm is of the version 5 PIDM bytes, recorded when tail hub
// ids and offsets got their widths: where the finalize puts each entry,
// and in how many bytes.
// The streamed legs finalize the serial lists and a one-thread build's
// store straight into a file through fileio, as parapll-index does: the
// file must hash to the same pin.
func TestIndexBytesGolden(t *testing.T) {
	for dataset, want := range map[string]struct{ pidx, pidm string }{
		"Gnutella": {"0bb01996e156bb5d79b1ada12a46d752e33623664842effa444e55e236052451", "01d268b38a669b3810017bb4658204c099f388fbcc1f7ce127e7496ed87c14be"},
		"RI-USA":   {"ba042b81e0b2f7379eb6ea206f49fad697488b7ba2b229a833095c653700ba14", "9bd0a14354c32fde77fdc5160fadcdfbd84cb3ca1f3ff6377d4b4f5c725e3049"},
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
			pidm := sha256.New()
			if err := x.WriteMmap(pidm); err != nil {
				t.Fatal(err)
			}
			if got := labelsHash(x); got != want.pidx {
				t.Errorf("%s %s: labels (%d entries) hash to %s, want %s", dataset, name, x.NumEntries(), got, want.pidx)
			}
			if got := fmt.Sprintf("%x", pidm.Sum(nil)); got != want.pidm {
				t.Errorf("%s %s: index of %d entries hashes to %s as PIDM, want %s", dataset, name, x.NumEntries(), got, want.pidm)
			}
		}
		lists := pll.Labels(g, pll.Options{})
		store := label.NewStore(g.NumVertices())
		BuildInto(g, store, Options{Threads: 1})
		for name, list := range map[string]func(v int) []label.Entry{
			"pll.Labels":        func(v int) []label.Entry { return lists[v] },
			"BuildInto/store/1": store.List(),
		} {
			path := filepath.Join(t.TempDir(), "streamed.midx")
			h, err := fileio.SaveLabels(fileio.OS, path, g.NumVertices(), list)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want.pidm {
				t.Errorf("%s %s streamed: file of %d entries hashes to %s, want %s", dataset, name, h.NumEntries(), got, want.pidm)
			}
		}
	}
}

// TestSerialTraceGolden pins the work accounting of the serial build
// beside its bytes: the Trace totals of labels added, popped vertices
// pruned and work units. Figure 6 and the projected speed-ups of
// Tables 3-4 read these counts, and a kernel change (a stale heap pop
// counted as a settle, say) could move them without moving a label.
func TestSerialTraceGolden(t *testing.T) {
	for dataset, want := range map[string][3]int64{
		"Gnutella": {26808, 41693, 2400891},
		"RI-USA":   {132547, 18839, 4884291},
	} {
		rec, err := gen.FindRecipe(dataset)
		if err != nil {
			t.Fatal(err)
		}
		var tr pll.Trace
		pll.Build(rec.Generate(0.05), pll.Options{Trace: &tr})
		var got [3]int64
		for k := range tr.AddedPerRoot {
			got[0] += tr.AddedPerRoot[k]
			got[1] += tr.PrunedPerRoot[k]
		}
		got[2] = tr.TotalWork()
		if got != want {
			t.Errorf("%s: trace totals (added, pruned, work) = %v, want %v", dataset, got, want)
		}
	}
}

// labelsHash is the SHA-256 of x's labels laid out as the retired
// fixed-width index format wrote them, so the hashes recorded from that
// writer still pin them: its magic and version 1, n, the entry count,
// n+1 running label sizes as uint64s, every label's (hub, distance) pairs
// in hub order as uint32s, and a CRC-32 of all that.
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
