package label

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"parapll/internal/graph"
)

func seedPIDMFiles(tb testing.TB) [][]byte {
	lists := [][][]Entry{
		{{}},
		{{{Hub: 0, D: 0}}},
		{
			{{Hub: 0, D: 0}},
			{{Hub: 0, D: 3}, {Hub: 1, D: 0}},
			{{Hub: 0, D: 5}, {Hub: 2, D: 0}},
		},
	}
	var files [][]byte
	for _, l := range lists {
		files = append(files, pidmBytes(tb, NewIndexFromLists(l)))
	}
	// Truncations, a bad magic and the retired formats: the parser's
	// first hurdles.
	whole := files[len(files)-1]
	files = append(files, whole[:8], whole[:len(whole)-1])
	files = append(files, []byte("JUNK1234"), []byte{})
	for _, r := range retiredFiles {
		files = append(files, r.data)
	}
	// The files above are at 1 byte a distance, the last whole one with a
	// head column and, at three vertices, every other hub a mid column;
	// these are the same labels with neither tier (and so 4 bytes a
	// distance), and a file whose head is every entry it has.
	files = append(files, pidmBytes(tb, NewIndexFromLists(lists[2]).Flat()))
	files = append(files, pidmBytes(tb, NewIndexFromLists([][]Entry{{{Hub: 0, D: 0}, {Hub: 1, D: 2}}, {{Hub: 0, D: 2}, {Hub: 1, D: 0}}})))
	// The middle tier's seeds: the same labels with a head and no bitmap;
	// a file whose every entry is a mid entry; and one with 65 mid
	// columns, so a bitmap row is two words and the second all spare bits
	// but one.
	files = append(files, pidmBytes(tb, NewIndexFromLists(lists[2]).HeadOnly()))
	for _, k2 := range []int{3, 65} {
		files = append(files, pidmBytes(tb, midOnlyIndex(k2)))
	}
	// The widths' seeds: the same labels with one distance that needs 2
	// bytes and one that needs 4.
	for _, far := range []graph.Dist{300, 70_000} {
		lists[2][2][0].D = far
		files = append(files, pidmBytes(tb, NewIndexFromLists(lists[2])))
	}
	return files
}

// midOnlyIndex builds an index of 2·k2 + 2 vertices with exactly k2 mid
// columns and nothing else: hub h < k2 is in every fourth label — more
// than a 32nd of them, fewer than half.
func midOnlyIndex(k2 int) *Index {
	lists := make([][]Entry, 2*k2+2)
	for v := range lists {
		for h := v % 4; h < k2; h += 4 {
			lists[v] = append(lists[v], Entry{Hub: graph.Vertex(h), D: graph.Dist(1 + (h+v)%9)})
		}
	}
	return NewIndexFromLists(lists)
}

// FuzzOpenPIDM drives the PIDM header/section parser (the same
// parsePIDM/checksumPIDM/slicePIDM pipeline Open runs against a mapped
// file, at any distance width) with arbitrary bytes. It must
// never panic, and any file it accepts must produce a structurally sound
// index: consistent label rows and panic-free queries over every vertex.
func FuzzOpenPIDM(f *testing.F) {
	for _, data := range seedPIDMFiles(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := readPIDMStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer runtime.KeepAlive(x)
		n := x.NumVertices()
		if n < 0 {
			t.Fatalf("accepted index with %d vertices", n)
		}
		if got := x.NumEntries(); got < 0 {
			t.Fatalf("accepted index with %d entries", got)
		}
		for v := 0; v < n; v++ {
			hubs, dists := x.Label(graph.Vertex(v), nil, nil)
			if len(hubs) != len(dists) {
				t.Fatalf("vertex %d: %d hubs vs %d dists", v, len(hubs), len(dists))
			}
		}
		if n > 0 {
			// Self-distance must be finite-or-Inf without panicking, and
			// symmetric queries must agree on the shared label set.
			_ = x.Query(0, graph.Vertex(n-1))
			_ = x.Query(graph.Vertex(n-1), 0)
			// The stream reader has checked every hub id, so the batch
			// kernel's dense array is safe to index too.
			_ = x.QueryBatch([][2]graph.Vertex{{0, graph.Vertex(n - 1)}, {graph.Vertex(n - 1), 0}}, 1)
		}
	})
}

// TestFuzzSeedsCoverVersionsAndWidths: the seeds hold a sound file at
// every distance width.
func TestFuzzSeedsCoverVersionsAndWidths(t *testing.T) {
	seen := map[int]bool{}
	for _, data := range seedPIDMFiles(t) {
		if h, err := parsePIDM(data); err == nil {
			seen[h.width] = true
		}
	}
	for _, width := range []int{1, 2, 4} {
		if !seen[width] {
			t.Errorf("no sound seed with %d-byte distances", width)
		}
	}
}

// TestRegenFuzzCorpus writes the seed PIDM files as go-fuzz corpus
// files under testdata/fuzz/FuzzOpenPIDM. It is a no-op unless
// PARAPLL_REGEN_CORPUS=1, so the checked-in corpus stays reproducible
// from the writer instead of being hand-maintained hex.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("PARAPLL_REGEN_CORPUS") != "1" {
		t.Skip("set PARAPLL_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzOpenPIDM")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, data := range seedPIDMFiles(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		name := filepath.Join(dir, fmt.Sprintf("seed-pidm-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
