package fileio_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parapll/internal/fileio"
	"parapll/internal/fileio/faultfs"
	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// leftovers names the files in dir a save must not leave: its target
// (when the test removed it) and any temp file.
func leftovers(t *testing.T, dir, target string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.Name() == target || strings.HasPrefix(e.Name(), ".tmp-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestSaveLabelsWriteFaultLeavesNothing fails each write of a streamed
// save in turn, with a full disk and with a short write: SaveLabels must
// return it, and leave neither a file at the path nor a temp file beside
// it.
func TestSaveLabelsWriteFaultLeavesNothing(t *testing.T) {
	lists := pll.Labels(gen.Datasets[0].Generate(0.05), pll.Options{})
	n, list := len(lists), func(v int) []label.Entry { return lists[v] }
	dir := t.TempDir()
	path := filepath.Join(dir, "g.midx")
	clean := &faultfs.FS{}
	if _, err := fileio.SaveLabels(clean, path, n, list); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, op := range clean.Ops() {
		if op.Kind != faultfs.Write {
			continue
		}
		writes++
		for _, f := range faultfs.Faults(op.Kind) {
			_, err := fileio.SaveLabels(&faultfs.FS{Hook: faultfs.At(op.Seq, f)}, path, n, list)
			if err == nil {
				t.Fatalf("fault %v at %s #%d: SaveLabels returned nil", f, op.Kind, op.Seq)
			}
			if left := leftovers(t, dir, "g.midx"); len(left) > 0 {
				t.Fatalf("fault %v at %s #%d (%v) left %v", f, op.Kind, op.Seq, err, left)
			}
		}
	}
	if writes < 2 {
		t.Fatalf("the save made %d writes: the sweep covers nothing", writes)
	}
}

// TestSaveFaults is the atomic save's durability contract, held by
// failing every operation of a save in turn with every fault it can
// meet (faultfs.Faults), over a path that holds an older file:
//   - the save returns an error: a save that reports success when the
//     disk refused a write, an fsync or a close is a lost artifact;
//   - no temp file is left;
//   - before the rename the path keeps the old bytes; from the rename's
//     directory fsync on it holds the new ones and the error wraps
//     fileio.ErrRenamed, so a caller holding the old file knows;
//   - after a crash at that fsync, either directory state holds one
//     whole file: the new one, or — the rename undone — the old one.
func TestSaveFaults(t *testing.T) {
	lists := pll.Labels(gen.Datasets[0].Generate(0.05), pll.Options{})
	g1 := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 5}})
	g2 := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 0, V: 3, W: 20}})
	small := pll.Labels(g1, pll.Options{})
	saves := []struct {
		name string
		save func(fsys fileio.FS, path string, newer bool) error
	}{
		{"g.bin", func(fsys fileio.FS, path string, newer bool) error {
			if newer {
				return fileio.SaveGraph(fsys, path, g2)
			}
			return fileio.SaveGraph(fsys, path, g1)
		}},
		{"g.midx", func(fsys fileio.FS, path string, newer bool) error {
			ls := small
			if newer {
				ls = lists
			}
			_, err := fileio.SaveLabels(fsys, path, len(ls), func(v int) []label.Entry { return ls[v] })
			return err
		}},
	}
	for _, sv := range saves {
		t.Run(sv.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, sv.name)
			read := func() []byte {
				t.Helper()
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			if err := sv.save(fileio.OS, path, false); err != nil {
				t.Fatal(err)
			}
			older := read()
			clean := &faultfs.FS{}
			if err := sv.save(clean, path, true); err != nil {
				t.Fatal(err)
			}
			newer := read()
			if bytes.Equal(older, newer) {
				t.Fatal("the two saves wrote the same bytes: the test cannot tell them apart")
			}
			renamed := 0
			for _, op := range clean.Ops() {
				if op.Kind == faultfs.Rename {
					renamed = op.Seq
				}
			}
			for _, op := range clean.Ops() {
				for _, f := range faultfs.Faults(op.Kind) {
					what := fmt.Sprintf("fault %v at %s #%d of %s", f, op.Kind, op.Seq, op.Path)
					if err := os.WriteFile(path, older, 0o644); err != nil {
						t.Fatal(err)
					}
					x := &faultfs.FS{Hook: faultfs.At(op.Seq, f)}
					err := sv.save(x, path, true)
					if err == nil {
						t.Fatalf("%s: the save returned nil", what)
					}
					if left := leftovers(t, dir, ""); len(left) > 0 {
						t.Fatalf("%s (%v) left %v", what, err, left)
					}
					want, after := older, op.Seq > renamed
					if after {
						want = newer
					}
					if !bytes.Equal(read(), want) || errors.Is(err, fileio.ErrRenamed) != after {
						t.Fatalf("%s (%v): path holds the new file %v, error wraps ErrRenamed %v; want %v for both",
							what, err, bytes.Equal(read(), newer), errors.Is(err, fileio.ErrRenamed), after)
					}
					if f != faultfs.Crash {
						continue
					}
					if err := x.UndoRenames(); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(read(), older) {
						t.Fatalf("%s: with the rename undone the path does not hold the old file", what)
					}
				}
			}
		})
	}
}
