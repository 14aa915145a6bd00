package fileio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"parapll/internal/core"
	"parapll/internal/gen"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// p2pStore builds the benchmark's p2p graph (Gnutella at 0.35, n ≈ 3.8 k,
// LN ≈ 229) into a label store, as parapll-index does.
func p2pStore(t *testing.T) *label.Store {
	rec, err := gen.FindRecipe("Gnutella")
	if err != nil {
		t.Fatal(err)
	}
	g := rec.Generate(0.35)
	store := label.NewStore(g.NumVertices())
	core.BuildInto(g, store, core.Options{Threads: 2, Policy: core.Dynamic})
	return store
}

// allocated returns the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSaveLabelsHoldsNoIndexCopy is the claim of the streamed finalize:
// saving a p2p-sized store allocates O(n) counters, one label's scratch
// and the section blocks — well under the file it writes — where
// finalizing the same store to a heap index and saving that allocates
// at least the file. The two files are the same bytes.
func TestSaveLabelsHoldsNoIndexCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark's p2p index; skipped in -short mode")
	}
	store := p2pStore(t)
	n := store.NumVertices()
	dir := t.TempDir()
	streamed, copied := filepath.Join(dir, "streamed.midx"), filepath.Join(dir, "copied.midx")
	var err error
	streamAlloc := allocated(func() { _, err = SaveLabels(streamed, n, store.List()) })
	if err != nil {
		t.Fatal(err)
	}
	copyAlloc := allocated(func() { err = SaveIndex(copied, label.NewIndex(store)) })
	if err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(copied)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("the streamed file (%d bytes) differs from the saved index (%d bytes)", len(a), len(b))
	}
	size := uint64(len(a))
	// 8 bytes a vertex of counters, the nine 64 KB section blocks, and
	// 64 KB for a label's scratch and the temp file's bookkeeping.
	bound := 8*uint64(n) + 9<<16 + 1<<16
	t.Logf("n=%d file %d B: streaming allocated %d B (bound %d), index then save %d B", n, size, streamAlloc, bound, copyAlloc)
	if streamAlloc > bound || streamAlloc > size/2 {
		t.Errorf("streaming a %d-byte index allocated %d B: want at most %d and under half the file", size, streamAlloc, bound)
	}
	if copyAlloc < size {
		t.Errorf("NewIndex and SaveIndex allocated %d B, under the %d-byte file: the measure cannot see a heap copy", copyAlloc, size)
	}
}

var errInjected = errors.New("injected write fault")

// failAt passes writes to the file until the fail-th, which fails with
// errInjected or — short — writes one byte less and reports no error.
type failAt struct {
	f     *os.File
	fail  int
	short bool
	calls *int
}

func (w failAt) WriteAt(p []byte, off int64) (int, error) {
	if *w.calls++; *w.calls != w.fail {
		return w.f.WriteAt(p, off)
	}
	if w.short {
		return w.f.WriteAt(p[:len(p)-1], off)
	}
	return 0, errInjected
}

// TestSaveLabelsWriteFaultLeavesNothing fails each write of a streamed
// save in turn, with an error and with a short write: SaveLabels must
// return it, and leave neither a file at the path nor a temp file beside
// it.
func TestSaveLabelsWriteFaultLeavesNothing(t *testing.T) {
	lists := pll.Labels(gen.Datasets[0].Generate(0.05), pll.Options{})
	n, list := len(lists), func(v int) []label.Entry { return lists[v] }
	dir := t.TempDir()
	path := filepath.Join(dir, "g.midx")
	calls := 0
	if _, err := saveLabels(path, n, list, func(f *os.File) io.WriterAt { return failAt{f: f, calls: &calls} }); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for _, short := range []bool{false, true} {
		for k := 1; k <= calls; k++ {
			seen := 0
			_, err := saveLabels(path, n, list, func(f *os.File) io.WriterAt { return failAt{f: f, fail: k, short: short, calls: &seen} })
			if err == nil {
				t.Fatalf("short=%v: write %d of %d failed, SaveLabels returned nil", short, k, calls)
			}
			entries, rerr := os.ReadDir(dir)
			if rerr != nil {
				t.Fatal(rerr)
			}
			for _, e := range entries {
				if e.Name() == "g.midx" || strings.HasPrefix(e.Name(), ".tmp-") {
					t.Fatalf("short=%v: write %d failed (%v) and left %s", short, k, err, e.Name())
				}
			}
		}
	}
}
