// Package fileio persists graphs and 2-hop indexes to disk for the
// two-stage workflow: cmd/parapll-gen writes graphs, cmd/parapll-index
// reads a graph and writes an index (PIDM, the one index format),
// cmd/parapll-query and cmd/parapll-server map the index back. All
// writes are atomic and durable (temp file + fsync + rename + directory
// fsync) so a crash mid-save can never leave a truncated or missing
// artifact behind.
package fileio

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"parapll/internal/graph"
	"parapll/internal/label"
)

// WriteAtomic writes via a temp file in the same directory and renames
// it into place on success. Durability, not just atomicity: the temp
// file is fsynced before the rename (so the bytes precede the name) and
// the parent directory is fsynced after it (so the rename itself
// survives a crash). Without the directory sync a power cut can forget
// the rename and leave the old file — or no file — behind. Exported for
// the WAL's checkpoint/truncation rewrites, which need the same
// discipline for files this package has no format knowledge of.
func WriteAtomic(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		_ = tmp.Close() // the write error wins; the temp file is discarded
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // the sync error wins; the temp file is discarded
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a completed rename durable. On
// windows directories cannot be opened for syncing; the rename is still
// atomic there, so this degrades to a no-op rather than failing saves.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // the sync error wins; the handle is read-only
		return fmt.Errorf("fileio: fsync %s: %w", dir, err)
	}
	return d.Close()
}

// SaveGraph writes g to path. The format is chosen by extension:
// ".txt"/".edges" for the text edge list, anything else for the binary
// cache format.
func SaveGraph(path string, g *graph.Graph) error {
	return WriteAtomic(path, func(f *os.File) error {
		if isTextGraph(path) {
			return graph.WriteEdgeList(f, g)
		}
		return graph.WriteBinary(f, g)
	})
}

// LoadGraph reads a graph from path, dispatching on extension: ".gr" is
// DIMACS, ".txt"/".edges" is a text edge list, anything else the binary
// cache format.
func LoadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".gr"):
		return graph.ReadDIMACS(f)
	case isTextGraph(path):
		return graph.ReadEdgeList(f)
	default:
		return graph.ReadBinary(f)
	}
}

func isTextGraph(path string) bool {
	return strings.HasSuffix(path, ".txt") || strings.HasSuffix(path, ".edges")
}

// SaveIndex writes a finalized 2-hop index to path as a PIDM file,
// whatever the extension.
func SaveIndex(path string, x *label.Index) error {
	return WriteAtomic(path, func(f *os.File) error { return x.WriteMmap(f) })
}

// SaveIndexAs is SaveIndex for callers that name the format:
// label.FormatMmap is the only one, and any other name is an error.
func SaveIndexAs(path string, x *label.Index, format string) error {
	if format != label.FormatMmap {
		return fmt.Errorf("fileio: unknown index format %q (want %s)", format, label.FormatMmap)
	}
	return SaveIndex(path, x)
}

// LoadIndex opens an index written by SaveIndex zero-copy (label.Open):
// O(1) start-up with the arrays aliasing the page cache. A file of a
// retired format is refused with an error that names it.
func LoadIndex(path string) (*label.Index, error) {
	x, err := label.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fileio: %s: %w", path, err)
	}
	return x, nil
}
