package compact

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parapll/internal/fileio"
	"parapll/internal/fileio/faultfs"
	"parapll/internal/wal"
)

// TestUpdateLogsBeforeApply: an insert is applied only once its WAL
// record is durable. At every fsync of wal.log during an Update, the
// edge being logged must not yet show in the lock-free Query; after
// Update returns it must. Every insert shortens a distance, so applying
// it shows.
func TestUpdateLogsBeforeApply(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	g := randomGraph(r, 40, 30)
	var p *Pipeline
	var logging *wal.Update
	syncs := 0
	x := &faultfs.FS{Hook: func(op faultfs.Op) faultfs.Fault {
		if logging != nil && op.Kind == faultfs.Sync && filepath.Base(op.Path) == WALFile {
			syncs++
			if d := p.Query(logging.U, logging.V); d <= logging.W {
				t.Errorf("insert %v shows (d = %d) at its WAL fsync: applied before it was durable", *logging, d)
			}
		}
		return faultfs.None
	}}
	p, err := Open(Options{Dir: t.TempDir(), Graph: g, FS: x})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	inserts := 0
	for _, up := range randomInserts(r, 40, 40) {
		if d := p.Query(up.U, up.V); up.W >= d {
			continue
		}
		logging = &up
		err := p.Update(up.U, up.V, up.W)
		logging = nil
		if err != nil {
			t.Fatal(err)
		}
		if d := p.Query(up.U, up.V); d != up.W {
			t.Fatalf("after Update %v the distance is %d", up, d)
		}
		inserts++
	}
	if inserts < 5 || syncs != inserts {
		t.Fatalf("%d shortening inserts saw %d WAL fsyncs", inserts, syncs)
	}
}

// TestCompactFaults fails every operation of a compaction in turn with
// every fault it can meet (faultfs.Faults). A fold and a rebuild differ
// only in where the labels come from, not in what they write, so one
// fold stands for both:
//   - in the checkpoint saves (graph.bin, then index.midx) Compact
//     returns the error, wal.log is untouched, and nothing is published;
//   - in the WAL's truncation the compaction has already published:
//     Compact succeeds, and the log has failed (wal.ErrFailed) exactly
//     when the fault came past the truncation's rename;
//   - either way reads stay exact, and so does a reopen, which replays
//     every acknowledged insert. After a crash at a directory fsync, the
//     directory state in which that rename was lost reopens exactly too.
func TestCompactFaults(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	g := randomGraph(r, 40, 30)
	acked := randomInserts(r, 40, 6)
	want := applied(g, acked)
	boot := t.TempDir()
	p, err := Open(Options{Dir: boot, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range acked {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// fresh copies the booted directory; open opens a pipeline on it.
	fresh := func() string {
		dir := t.TempDir()
		for _, name := range []string{WALFile, GraphFile, IndexFile} {
			data, err := os.ReadFile(filepath.Join(boot, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	open := func(dir string, fsys fileio.FS) *Pipeline {
		t.Helper()
		p, err := Open(Options{Dir: dir, Graph: g, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	reopen := func(dir, what string) {
		t.Helper()
		p := open(dir, nil)
		defer p.Close()
		if st := p.Stats(); st.WALFailed != "" {
			t.Fatalf("%s: reopened log failed: %s", what, st.WALFailed)
		}
		checkAllPairs(t, want, p)
	}

	clean := &faultfs.FS{}
	p = open(fresh(), clean)
	first := len(clean.Ops()) + 1
	if rep, err := p.Compact(); err != nil || rep.Mode != "fold" {
		t.Fatalf("clean Compact: %+v, %v", rep, err)
	}
	ops := clean.Ops()[first-1:]
	p.Close()
	truncating, renamed := 0, 0 // the first operation of the WAL's truncation, and its rename
	for _, op := range ops {
		if strings.Contains(filepath.Base(op.Path), WALFile) {
			if truncating == 0 {
				truncating = op.Seq
			}
			if op.Kind == faultfs.Rename {
				renamed = op.Seq
			}
		}
	}
	if truncating == 0 || renamed == 0 {
		t.Fatalf("the clean compaction never truncated the WAL: %v", ops)
	}

	for _, op := range ops {
		for _, f := range faultfs.Faults(op.Kind) {
			what := fmt.Sprintf("fault %v at %s #%d (%s)", f, op.Kind, op.Seq, filepath.Base(op.Path))
			dir := fresh()
			walBefore, err := os.ReadFile(filepath.Join(dir, WALFile))
			if err != nil {
				t.Fatal(err)
			}
			x := &faultfs.FS{Hook: faultfs.At(op.Seq, f)}
			p := open(dir, x)
			rep, err := p.Compact()
			if op.Seq < truncating {
				walAfter, rerr := os.ReadFile(filepath.Join(dir, WALFile))
				if rerr != nil {
					t.Fatal(rerr)
				}
				if err == nil || rep.Mode != "" || p.Generation() != 0 || !bytes.Equal(walBefore, walAfter) {
					t.Fatalf("%s: Compact = %+v, %v; generation %d, wal.log unchanged %v; want the error and nothing published",
						what, rep, err, p.Generation(), bytes.Equal(walBefore, walAfter))
				}
			} else {
				failed := p.Stats().WALFailed != ""
				if err != nil || p.Generation() != 1 || failed != (op.Seq > renamed) {
					t.Fatalf("%s: Compact = %+v, %v; generation %d, log failed %v; want a publish, and a failed log past the rename (#%d)",
						what, rep, err, p.Generation(), failed, renamed)
				}
			}
			checkAllPairs(t, want, p)
			p.Close()
			reopen(dir, what)
			if f != faultfs.Crash {
				continue
			}
			if err := x.UndoRenames(); err != nil {
				t.Fatal(err)
			}
			reopen(dir, what+", rename undone")
		}
	}
}
