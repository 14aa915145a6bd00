package label

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
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
// every distance width and both hub widths.
func TestFuzzSeedsCoverVersionsAndWidths(t *testing.T) {
	seen := map[string]bool{}
	for _, data := range seedPIDMFiles(t) {
		if h, err := parsePIDM(data); err == nil {
			seen[fmt.Sprintf("%d-byte distances", h.width)] = true
			seen[fmt.Sprintf("%d-byte hubs", h.hubBytes)] = true
		}
	}
	for _, want := range []string{"1-byte distances", "2-byte distances", "4-byte distances", "2-byte hubs", "4-byte hubs"} {
		if !seen[want] {
			t.Errorf("no sound seed with %s", want)
		}
	}
}

// TestVersion4SeedRefusedByName: the corpus keeps one whole file the
// version 4 writer wrote (seed-pidm-v4, which TestRegenFuzzCorpus does
// not rewrite), and both readers refuse it by name.
func TestVersion4SeedRefusedByName(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzOpenPIDM", "seed-pidm-v4"))
	if err != nil {
		t.Fatal(err)
	}
	_, line, _ := strings.Cut(string(body), "\n")
	quoted, ok := strings.CutSuffix(strings.TrimPrefix(strings.TrimSpace(line), "[]byte("), ")")
	data, err := strconv.Unquote(quoted)
	if !ok || err != nil || len(data) <= mmapHeader || binary.LittleEndian.Uint32([]byte(data[4:8])) != 4 {
		t.Fatalf("seed-pidm-v4 is not a whole version 4 file: %q (%v)", body, err)
	}
	const want = "a PIDM version 4 index, a format this build no longer reads: rebuild it with parapll-index"
	if x, err := readPIDMStream(strings.NewReader(data)); x != nil || err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("readPIDMStream: %v, want %q", err, want)
	}
	if x, err := Open(writeTemp(t, []byte(data))); x != nil || err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open: %v, want %q", err, want)
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

// FuzzHeadCovers holds the store form's prune test — the lane test, the
// per-cell test above maxLaneD, the test at Inf, and Set's merge of the
// hub's list into its row and of its cells into tmp — to the scalar
// predicate. The input is read three bytes at a time: the first names a
// side (its top bit: the hub's label or v's) and a hub, the next two a
// distance — below 0x8000 itself, above it one of edges — appended there.
// Hubs [0, headBlock) own the head's one block; the rest live in the
// lists, and so do the head hubs' distances above maxCell. The test runs
// at the fuzzed d, at Inf, and at every sum of the two sides' entries
// for a hub, one less and one more.
func FuzzHeadCovers(f *testing.F) {
	const n, root, v = headBlock + 16, 0, 1
	edges := []graph.Dist{maxCell, maxCell + 1, maxLaneD, maxLaneD + 1, graph.Inf / 2, graph.Inf - 1, graph.Inf}
	f.Add([]byte{0x05, 0x00, 0x03, 0x85, 0x00, 0xFE, 0x06, 0x80, 0x01, 0x86, 0x00, 0x01}, uint32(0x3FFF))
	f.Add([]byte{0x05, 0x3F, 0x01, 0x85, 0x00, 0xFE, 0x46, 0x01, 0x00, 0xC6, 0x00, 0x02}, uint32(0x4000))
	f.Add([]byte{0x07, 0x80, 0x06, 0x87, 0x00, 0x00, 0x88, 0x00, 0xFF, 0x08, 0x80, 0x05}, uint32(graph.Inf))
	f.Fuzz(func(t *testing.T, data []byte, d uint32) {
		ord := make([]graph.Vertex, n)
		for i := range ord {
			ord[i] = graph.Vertex(i)
		}
		s := NewStore(n)
		s.UseHead(ord)
		s.BeginRoot(0)
		var sides [2][]Entry
		for ; len(data) >= 3; data = data[3:] {
			side, hub := data[0]>>7, graph.Vertex(data[0]&0x7F)%n
			dist := graph.Dist(data[1])<<8 | graph.Dist(data[2])
			if dist >= 0x8000 {
				dist = edges[int(dist)%len(edges)]
			}
			sides[side] = append(sides[side], Entry{Hub: hub, D: dist})
			s.Append([]graph.Vertex{root, v}[side], hub, dist)
		}
		rootD := make([]graph.Dist, n) // the hub side's smallest distance per hub
		for h := range rootD {
			rootD[h] = graph.Inf
		}
		for _, e := range sides[0] {
			rootD[e.Hub] = min(rootD[e.Hub], e.D)
		}
		covered := func(d graph.Dist) bool {
			for _, e := range sides[1] {
				if t := rootD[e.Hub]; t != graph.Inf && graph.AddDist(t, e.D) <= d {
					return true
				}
			}
			return false
		}
		bounds := []graph.Dist{graph.Dist(d), graph.Inf}
		for _, e := range sides[1] {
			if sum := graph.AddDist(rootD[e.Hub], e.D); sum != graph.Inf {
				bounds = append(bounds, sum-min(sum, 1), sum, sum+1)
			}
		}
		p := NewProbe(n)
		p.Set(s.Label(root))
		for _, d := range bounds {
			if got, want := p.Covers(v, s.Snapshot(v), d), covered(d); got != want {
				t.Fatalf("Covers(d=%d) = %v, the predicate over hub side %v and v's side %v says %v", d, got, sides[0], sides[1], want)
			}
		}
	})
}
