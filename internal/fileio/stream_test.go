package fileio

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"parapll/internal/core"
	"parapll/internal/gen"
	"parapll/internal/label"
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
	streamAlloc := allocated(func() { _, err = SaveLabels(OS, streamed, n, store.List()) })
	if err != nil {
		t.Fatal(err)
	}
	copyAlloc := allocated(func() { err = SaveIndex(OS, copied, label.NewIndex(store)) })
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
