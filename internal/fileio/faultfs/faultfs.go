// Package faultfs is the fault-injecting fileio.FS shared by the tests
// of fileio, wal and compact. It passes every operation to package os,
// as fileio.OS does, unless its hook fails it with one of the faults a
// disk gives a durable write: a full disk, a short write, an I/O error,
// or a crash.
package faultfs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"parapll/internal/fileio"
)

// Kind names an operation.
type Kind uint8

const (
	Create   Kind = iota // CreateTemp
	Open                 // OpenFile, of a file or a directory
	Write                // Write or WriteAt
	Sync                 // fsync of a file
	SyncDir              // fsync of a directory
	Close                // Close, of a file or a directory
	Truncate             // Truncate
	Rename               // Rename
)

func (k Kind) String() string {
	return [...]string{"create", "open", "write", "sync", "syncdir", "close", "truncate", "rename"}[k]
}

// Op is one operation the FS is asked for.
type Op struct {
	// Seq is 1 for the first operation through the FS, 2 for the next.
	Seq  int
	Kind Kind
	// Path is the file or directory the operation acts on: a rename's
	// target, a CreateTemp's directory joined with its pattern.
	Path string
}

// Fault is what a hook makes of an operation.
type Fault uint8

const (
	// None runs the operation.
	None Fault = iota
	// NoSpace fails it with ENOSPC, doing nothing.
	NoSpace
	// Short is NoSpace, except that a write puts the first half of its
	// bytes in the file first, as a disk that fills mid-call does.
	Short
	// IOError fails it with EIO, doing nothing; a Close still releases
	// the file.
	IOError
	// Crash fails it and every later operation with ErrCrashed: the
	// process is taken to have died there. UndoRenames then gives the
	// other directory state the crash can leave.
	Crash
)

func (f Fault) String() string {
	return [...]string{"none", "nospace", "short", "eio", "crash"}[f]
}

// ErrCrashed is the error of every operation from a Crash on.
var ErrCrashed = errors.New("faultfs: crashed")

// Faults lists the faults worth injecting at an operation of kind k: a
// full disk and a short write at a write, a crash at a directory fsync
// (after a rename, before it is durable), an I/O error everywhere else.
func Faults(k Kind) []Fault {
	switch k {
	case Write:
		return []Fault{NoSpace, Short}
	case SyncDir:
		return []Fault{IOError, Crash}
	default:
		return []Fault{IOError}
	}
}

// At is a hook that injects f at the seq-th operation.
func At(seq int, f Fault) func(Op) Fault {
	return func(op Op) Fault {
		if op.Seq == seq {
			return f
		}
		return None
	}
}

// FS is a fileio.FS over package os whose Hook decides, for each
// operation, whether it runs. The zero FS runs everything. Hook calls
// are serialized, so a hook may keep plain state.
type FS struct {
	// Hook, when non-nil, is asked about each operation before it runs.
	Hook func(Op) Fault

	mu      sync.Mutex
	ops     []Op
	crashed bool
	undo    []replaced // renames no directory fsync has made durable yet
}

// replaced is what a rename put out of place: the target's old bytes,
// or that it had none.
type replaced struct {
	path    string
	old     []byte
	existed bool
}

// Ops returns every operation the FS was asked for, in order.
func (x *FS) Ops() []Op {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]Op(nil), x.ops...)
}

// fault records an operation and returns the error it fails with (nil
// to run it) and the fault behind that error.
func (x *FS) fault(kind Kind, path string) (Fault, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	op := Op{Seq: len(x.ops) + 1, Kind: kind, Path: path}
	x.ops = append(x.ops, op)
	f := None
	if x.crashed {
		f = Crash
	} else if x.Hook != nil {
		f = x.Hook(op)
	}
	var errno error
	switch f {
	case None:
		return None, nil
	case NoSpace, Short:
		errno = syscall.ENOSPC
	case IOError:
		errno = syscall.EIO
	case Crash:
		x.crashed = true
		errno = ErrCrashed
	}
	return f, &fs.PathError{Op: kind.String(), Path: path, Err: errno}
}

// UndoRenames puts back what every rename not yet followed by a
// directory fsync replaced: the directory state a crash before that
// fsync may leave. Call it after a Crash, once the code under test has
// closed its files.
func (x *FS) UndoRenames() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	for i := len(x.undo) - 1; i >= 0; i-- {
		r := x.undo[i]
		var err error
		if r.existed {
			err = os.WriteFile(r.path, r.old, 0o644)
		} else {
			err = os.Remove(r.path)
		}
		if err != nil {
			return err
		}
	}
	x.undo = nil
	return nil
}

func (x *FS) CreateTemp(dir, pattern string) (fileio.File, error) {
	if _, err := x.fault(Create, filepath.Join(dir, pattern)); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &file{fs: x, f: f}, nil
}

func (x *FS) OpenFile(name string, flag int, perm os.FileMode) (fileio.File, error) {
	if _, err := x.fault(Open, name); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &file{fs: x, f: f, dir: st.IsDir()}, nil
}

func (x *FS) Rename(oldpath, newpath string) error {
	if _, err := x.fault(Rename, newpath); err != nil {
		return err
	}
	r := replaced{path: newpath}
	old, err := os.ReadFile(newpath)
	switch {
	case err == nil:
		r.old, r.existed = old, true
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	x.mu.Lock()
	x.undo = append(x.undo, r)
	x.mu.Unlock()
	return nil
}

// file is one open file of an FS.
type file struct {
	fs  *FS
	f   *os.File
	dir bool
}

func (f *file) Name() string { return f.f.Name() }

func (f *file) Write(p []byte) (int, error) {
	flt, err := f.fs.fault(Write, f.Name())
	if err == nil {
		return f.f.Write(p)
	}
	if flt == Short {
		n, _ := f.f.Write(p[:len(p)/2])
		return n, err
	}
	return 0, err
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	flt, err := f.fs.fault(Write, f.Name())
	if err == nil {
		return f.f.WriteAt(p, off)
	}
	if flt == Short {
		n, _ := f.f.WriteAt(p[:len(p)/2], off)
		return n, err
	}
	return 0, err
}

func (f *file) Sync() error {
	kind := Sync
	if f.dir {
		kind = SyncDir
	}
	if _, err := f.fs.fault(kind, f.Name()); err != nil {
		return err
	}
	if err := f.f.Sync(); err != nil {
		return err
	}
	if f.dir {
		f.fs.synced(f.Name())
	}
	return nil
}

// synced drops the renames into dir from what UndoRenames puts back: a
// directory fsync has made them durable.
func (x *FS) synced(dir string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	kept := x.undo[:0]
	for _, r := range x.undo {
		if filepath.Dir(r.path) != filepath.Clean(dir) {
			kept = append(kept, r)
		}
	}
	x.undo = kept
}

func (f *file) Truncate(size int64) error {
	if _, err := f.fs.fault(Truncate, f.Name()); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *file) Close() error {
	_, err := f.fs.fault(Close, f.Name())
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	return err
}
