// Package fileio persists graphs and 2-hop indexes to disk for the
// two-stage workflow: cmd/parapll-gen writes graphs, cmd/parapll-index
// reads a graph and writes an index (PIDM, the one index format),
// cmd/parapll-query and cmd/parapll-server map the index back. All
// writes are atomic and durable (temp file + fsync + rename + directory
// fsync) so a crash mid-save can never leave a truncated or missing
// artifact behind. Every save goes through the FS it is given: OS in
// production, a fault injector in tests.
package fileio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"parapll/internal/graph"
	"parapll/internal/label"
)

// FS is the filesystem under every durable write in the module: the
// atomic saves here, and the WAL's appends, truncations and rewrites. A
// directory fsync is an OpenFile of the directory, a Sync and a Close.
// OS passes each call to package os and holds no logic of its own, so
// every error path of a durable write is above the seam, where tests put
// an injecting FS in its place to fail each operation in turn.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
}

// File is the part of *os.File a durable write uses.
type File interface {
	io.Writer
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
	Name() string
}

// OS is the operating system's filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// ErrRenamed is wrapped by the error of a WriteAtomic whose rename took
// place and whose directory fsync then failed: path names the new file,
// a crash may still bring the old one back, and a handle open on the old
// one writes to a file no longer at path.
var ErrRenamed = errors.New("fileio: renamed, not durably")

// WriteAtomic writes via a temp file in the same directory and renames
// it into place on success. Durability, not just atomicity: the temp
// file is fsynced before the rename (so the bytes precede the name) and
// the parent directory is fsynced after it (so the rename itself
// survives a crash). Without the directory sync a power cut can forget
// the rename and leave the old file — or no file — behind. Exported for
// the WAL's creation and truncation rewrites, which need the same
// discipline for files this package has no format knowledge of.
func WriteAtomic(fsys FS, path string, write func(File) error) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
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
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if err := syncDir(fsys, dir); err != nil {
		return fmt.Errorf("%w: fsync %s: %w", ErrRenamed, dir, err)
	}
	return nil
}

// syncDir fsyncs a directory, making a completed rename durable. On
// windows directories cannot be opened for syncing; the rename is still
// atomic there, so this degrades to a no-op rather than failing saves.
func syncDir(fsys FS, dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // the sync error wins; the handle is read-only
		return err
	}
	return d.Close()
}

// SaveGraph writes g to path. The format is chosen by extension:
// ".txt"/".edges" for the text edge list, anything else for the binary
// cache format.
func SaveGraph(fsys FS, path string, g *graph.Graph) error {
	return WriteAtomic(fsys, path, func(f File) error {
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
// whatever the extension: one write of its image.
func SaveIndex(fsys FS, path string, x *label.Index) error {
	return WriteAtomic(fsys, path, func(f File) error { return x.WriteMmap(f) })
}

// SaveLabels streams the index label.NewIndexFunc(n, list) would build
// into a PIDM file at path, atomically and durably as every save here:
// the bytes SaveIndex writes of that index, without the index, so a
// caller holding a label store never holds a heap copy of the index
// beside it. It returns the header it wrote.
func SaveLabels(fsys FS, path string, n int, list func(v int) []label.Entry) (label.Header, error) {
	var h label.Header
	err := WriteAtomic(fsys, path, func(f File) (err error) {
		h, err = label.WriteLabels(f, n, list)
		return err
	})
	return h, err
}

// SaveIndexAs is SaveIndex for callers that name the format:
// label.FormatMmap is the only one, and any other name is an error.
func SaveIndexAs(path string, x *label.Index, format string) error {
	if format != label.FormatMmap {
		return fmt.Errorf("fileio: unknown index format %q (want %s)", format, label.FormatMmap)
	}
	return SaveIndex(OS, path, x)
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
