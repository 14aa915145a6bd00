package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"parapll/internal/fileio"
	"parapll/internal/fileio/faultfs"
)

// faultScript is TestLogFaults' workload over a log file holding one
// record and a torn one: open it (the torn record is truncated away),
// append three records, drop the first two records, append one more.
// It returns each step's error, calling after (when non-nil) at the
// end of each step, and stops after a failed open.
func faultScript(fsys fileio.FS, path string, ups []Update, after func()) (*Log, []error) {
	var errs []error
	run := func(err error) {
		errs = append(errs, err)
		if after != nil {
			after()
		}
	}
	l, _, err := OpenFS(fsys, path)
	run(err)
	if err != nil {
		return nil, errs
	}
	for _, up := range ups[1:4] {
		run(l.Append(up.U, up.V, up.W))
	}
	run(l.TruncateFront(2))
	run(l.Append(ups[4].U, ups[4].V, ups[4].W))
	return l, errs
}

// TestLogFaults is the log's durability contract, held by failing every
// operation of faultScript in turn with every fault it can meet
// (faultfs.Faults):
//   - the step the fault hits returns an error, and every step before
//     it succeeds: an Append, an Open or a TruncateFront that reports
//     success when the disk refused its write, fsync, truncate or close
//     is an acknowledged record that may not be there;
//   - a fault in an Append fails the log (ErrFailed), and so does a
//     fault in a TruncateFront once its rewrite is renamed into place,
//     since the log's handle may then name the renamed-over file. One
//     before the rename (a full disk under the temp file, say) leaves
//     the log healthy. On a failed log every later Append fails;
//   - reopening the file replays every acknowledged record that no
//     completed TruncateFront dropped, in order, followed at most by the
//     record of an Append whose fsync failed; after a crash at the
//     rewrite's directory fsync, the directory state in which the rename
//     was lost replays the records from before the truncation.
func TestLogFaults(t *testing.T) {
	ups := []Update{{U: 0, V: 9, W: 4}, {U: 1, V: 2, W: 7}, {U: 3, V: 2, W: 1}, {U: 5, V: 4, W: 3}, {U: 6, V: 8, W: 2}}
	names := []string{"open", "append#1", "append#2", "append#3", "truncatefront", "append#4"}
	seed := make([]byte, RecordSize*2)
	encodeRecord(seed, ups[0])
	seed = append(header(), seed[:RecordSize+RecordSize/2]...)
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")

	// A clean run fixes where each step's operations lie.
	if err := os.WriteFile(path, seed, 0o644); err != nil {
		t.Fatal(err)
	}
	clean := &faultfs.FS{}
	var ends []int // ends[i] is the Seq of step i's last operation
	l, errs := faultScript(clean, path, ups, func() { ends = append(ends, len(clean.Ops())) })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clean %s: %v", names[i], err)
		}
	}
	l.Close()
	ops := clean.Ops()[:ends[len(ends)-1]] // not the Close after the script
	renamed := 0
	for _, op := range ops {
		if op.Kind == faultfs.Rename {
			renamed = op.Seq
		}
	}
	if renamed <= ends[3] || renamed > ends[4] {
		t.Fatalf("the clean run renamed at operation %d, outside TruncateFront's %d..%d", renamed, ends[3]+1, ends[4])
	}

	for _, op := range ops {
		step, _ := slices.BinarySearch(ends, op.Seq)
		for _, f := range faultfs.Faults(op.Kind) {
			what := fmt.Sprintf("fault %v at %s #%d (%s) in %s", f, op.Kind, op.Seq, filepath.Base(op.Path), names[step])
			if err := os.WriteFile(path, seed, 0o644); err != nil {
				t.Fatal(err)
			}
			x := &faultfs.FS{Hook: faultfs.At(op.Seq, f)}
			l, errs := faultScript(x, path, ups, nil)
			live, beforeTrunc := []Update{ups[0]}, []Update(nil)
			var maybe *Update // an unacknowledged record the file may hold
			failed := false
			for i, err := range errs {
				rec := ups[min(i, 4)] // what append step i writes
				// The faulted step fails; so does every later one on a
				// failed log or after a crash, and no other.
				wantErr := i == step || i > step && (failed || f == faultfs.Crash)
				if (err != nil) != wantErr {
					t.Fatalf("%s: %s returned %v", what, names[i], err)
				}
				if isAppend := i > 0 && i != 4; isAppend && err != nil && !errors.Is(err, ErrFailed) {
					t.Fatalf("%s: %s failed with %v, want an error wrapping ErrFailed", what, names[i], err)
				}
				switch {
				case i == 0:
				case i == 4:
					beforeTrunc = slices.Clone(live)
					past := step == 4 && op.Seq > renamed
					if err == nil || past {
						live = live[2:]
					}
					if step == 4 && errors.Is(err, ErrFailed) != past {
						t.Fatalf("%s: TruncateFront failed with %v; want ErrFailed exactly past the rename (operation %d)", what, err, renamed)
					}
				case err == nil:
					live = append(live, rec)
				case i == step && op.Kind == faultfs.Sync:
					maybe = &rec
				}
				failed = failed || errors.Is(err, ErrFailed)
			}
			if l != nil {
				l.Close()
			}
			replayed := func() []Update {
				t.Helper()
				_, got, err := Open(path)
				if err != nil {
					t.Fatalf("%s: reopen: %v", what, err)
				}
				return got
			}
			got := replayed()
			if !slices.Equal(got, live) && (maybe == nil || !slices.Equal(got, append(slices.Clone(live), *maybe))) {
				t.Fatalf("%s: reopen replayed %v, want %v (then possibly %v)", what, got, live, maybe)
			}
			if f != faultfs.Crash {
				continue
			}
			if err := os.WriteFile(path, seed, 0o644); err != nil {
				t.Fatal(err)
			}
			x = &faultfs.FS{Hook: faultfs.At(op.Seq, f)}
			if l, _ = faultScript(x, path, ups, nil); l != nil {
				l.Close()
			}
			if err := x.UndoRenames(); err != nil {
				t.Fatal(err)
			}
			if got := replayed(); !slices.Equal(got, beforeTrunc) {
				t.Fatalf("%s, rename undone: reopen replayed %v, want %v", what, got, beforeTrunc)
			}
		}
	}
}
