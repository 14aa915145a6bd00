package compact

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"parapll/internal/fileio/faultfs"
	"parapll/internal/wal"
)

// TestCompactOnFailedLog: once a write to the WAL has failed (a full
// disk, injected through Options.FS), the pipeline refuses
// inserts, says why in its Stats, and does not compact — Compact returns
// wal.ErrFailed without touching wal.log or the checkpoint pair, so no
// kick can start a loop of rebuilds over records that can never be
// truncated away. Reads go on, and a reopen replays exactly the
// acknowledged records.
func TestCompactOnFailedLog(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	g := randomGraph(r, 40, 30)
	dir := t.TempDir()
	full := false
	x := &faultfs.FS{Hook: func(op faultfs.Op) faultfs.Fault {
		if full && op.Kind == faultfs.Write {
			return faultfs.NoSpace
		}
		return faultfs.None
	}}
	p, err := Open(Options{Dir: dir, Graph: g, CompactEvery: 3, FS: x})
	if err != nil {
		t.Fatal(err)
	}
	acked := randomInserts(r, 40, 2) // below CompactEvery: nothing kicks
	for _, up := range acked {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.WALFailed != "" {
		t.Fatalf("healthy pipeline reports wal_failed %q", st.WALFailed)
	}
	files := map[string][]byte{}
	for _, name := range []string{WALFile, GraphFile, IndexFile} {
		if files[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}

	full = true
	lost := randomInserts(r, 40, 3)
	for _, up := range lost { // the third would have reached CompactEvery
		if err := p.Update(up.U, up.V, up.W); !errors.Is(err, wal.ErrFailed) {
			t.Fatalf("Update on the failed log = %v, want an error wrapping wal.ErrFailed", err)
		}
	}
	st := p.Stats()
	if st.WALFailed == "" || st.WALRecords != len(acked) || st.Compactions != 0 {
		t.Fatalf("stats after the failure: %+v; want wal_failed set, %d records, no compaction", st, len(acked))
	}
	if rep, err := p.Compact(); !errors.Is(err, wal.ErrFailed) || rep.Mode != "" {
		t.Fatalf("Compact on the failed log = %+v, %v; want wal.ErrFailed", rep, err)
	}
	for name, before := range files {
		after, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s changed after the log failed: %d -> %d bytes", name, len(before), len(after))
		}
	}
	checkAllPairs(t, applied(g, acked), p) // reads are served, without the refused inserts
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p, err = Open(Options{Dir: dir, Graph: g})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p.Close()
	if st := p.Stats(); st.WALFailed != "" || st.WALRecords != len(acked) {
		t.Fatalf("stats after the restart: %+v; want a healthy log of %d records", st, len(acked))
	}
	checkAllPairs(t, applied(g, acked), p)
	if err := p.Update(lost[0].U, lost[0].V, lost[0].W); err != nil {
		t.Fatalf("Update after the restart: %v", err)
	}
}

// TestCompactWaitingOnAFailedApply: an insert whose apply fails after its
// record is durable fails the log while it holds the writer mutex, so a
// Compact already started and waiting on that mutex must see the failure
// once it gets it: it folds nothing, writes no checkpoint and swaps
// nothing in, and the record stays in the WAL for a restart to replay
// whole.
func TestCompactWaitingOnAFailedApply(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	g := randomGraph(r, 40, 30)
	dir := t.TempDir()
	p, err := Open(Options{Dir: dir, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	ups := randomInserts(r, 40, 2)
	if err := p.Update(ups[0].U, ups[0].V, ups[0].W); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range []string{GraphFile, IndexFile} {
		if files[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}

	cur := p.cur
	p.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := p.Compact()
		done <- err
	}()
	for p.compactSince.Load() == 0 { // Compact is past its start, on its way to mu
		time.Sleep(time.Millisecond)
	}
	// What insert does when InsertEdge faults: the record is durable, the
	// live labels do not hold it (whole), and the log fails.
	up := ups[1]
	if err := p.log.Append(up.U, up.V, up.W); err != nil {
		t.Fatal(err)
	}
	_ = p.applyFailed(up.U, up.V, up.W, errors.New("injected apply fault"))
	p.mu.Unlock()

	if err := <-done; !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Compact that waited on a failing apply = %v, want wal.ErrFailed", err)
	}
	if p.cur != cur || p.Stats().Compactions != 0 {
		t.Fatalf("Compact swapped in another index (%d compactions) over a failed apply", p.Stats().Compactions)
	}
	for name, before := range files {
		after, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s rewritten after a failed apply: %d -> %d bytes", name, len(before), len(after))
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p, err = Open(Options{Dir: dir, Graph: g})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p.Close()
	if st := p.Stats(); st.WALFailed != "" || st.WALRecords != 2 {
		t.Fatalf("stats after the restart: %+v; want a healthy log of 2 records", st)
	}
	checkAllPairs(t, applied(g, ups), p)
}
