package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"parapll/internal/fileio/faultfs"
	"parapll/internal/graph"
)

func openEmpty(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, ups, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(ups) != 0 {
		t.Fatalf("fresh log replayed %d updates", len(ups))
	}
	return l, path
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, path := openEmpty(t)
	want := []Update{
		{U: 0, V: 1, W: 7},
		{U: 3, V: 2, W: 1},
		{U: 5, V: 9, W: graph.Inf - 1},
	}
	for _, up := range want {
		if err := l.Append(up.U, up.V, up.W); err != nil {
			t.Fatalf("Append(%v): %v", up, err)
		}
	}
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
	if got := l.Bytes(); got != int64(HeaderSize+RecordSize*len(want)) {
		t.Fatalf("Bytes = %d", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, ups, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(ups) != len(want) {
		t.Fatalf("replayed %d updates, want %d", len(ups), len(want))
	}
	for i := range want {
		if ups[i] != want[i] {
			t.Fatalf("update %d = %v, want %v", i, ups[i], want[i])
		}
	}
}

// TestAppendRejectsInvalid holds both guards of the log to one table:
// Append refuses each invalid update, and a CRC-valid record of it ends
// Replay's consistent prefix, so neither the writer nor a corrupt file
// can put one into the index. Weight Inf-1 passes both.
func TestAppendRejectsInvalid(t *testing.T) {
	l, _ := openEmpty(t)
	cases := []Update{
		{U: 4, V: 4, W: 3},         // self loop
		{U: 0, V: 1, W: 0},         // nonpositive weight
		{U: 0, V: 1, W: graph.Inf}, // Inf sentinel
		{U: -1, V: 1, W: 2},        // negative id
	}
	valid := Update{U: 2, V: 3, W: graph.Inf - 1}
	for _, up := range cases {
		if err := l.Append(up.U, up.V, up.W); err == nil {
			t.Errorf("Append(%v) accepted", up)
		}
		data := header()
		for _, rec := range []Update{valid, up, valid} {
			var b [RecordSize]byte
			encodeRecord(b[:], rec)
			data = append(data, b[:]...)
		}
		if ups, consumed := Replay(data); len(ups) != 1 || ups[0] != valid || consumed != HeaderSize+RecordSize {
			t.Errorf("Replay of a CRC-valid %v record: %v, %d bytes consumed; want only the record before it", up, ups, consumed)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("invalid appends changed Len to %d", l.Len())
	}
	if err := l.Append(valid.U, valid.V, valid.W); err != nil {
		t.Fatalf("Append(%v): %v", valid, err)
	}
}

// TestTornTailTruncated cuts the file at every byte boundary of the
// final record and checks Open replays exactly the whole-record prefix,
// then physically truncates the file back to that prefix.
func TestTornTailTruncated(t *testing.T) {
	l, path := openEmpty(t)
	for i := graph.Vertex(0); i < 4; i++ {
		if err := l.Append(i, i+1, graph.Dist(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := HeaderSize; cut <= len(whole); cut++ {
		dir := t.TempDir()
		p := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(p, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, ups, err := Open(p)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		wantRecs := (cut - HeaderSize) / RecordSize
		if len(ups) != wantRecs {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(ups), wantRecs)
		}
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(HeaderSize+wantRecs*RecordSize) {
			t.Fatalf("cut %d: file not truncated to prefix: %d bytes", cut, fi.Size())
		}
		// The truncated log must accept new appends at the boundary.
		if err := l2.Append(100, 101, 5); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		l2.Close()
	}
}

// TestBitFlipEndsPrefix flips one byte inside each record in turn and
// checks replay stops at that record — a consistent prefix, never a
// skip-and-continue.
func TestBitFlipEndsPrefix(t *testing.T) {
	l, path := openEmpty(t)
	const recs = 5
	for i := graph.Vertex(0); i < recs; i++ {
		if err := l.Append(i, i+1, 2); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < recs; r++ {
		for _, off := range []int{0, 5, 11, 13} {
			data := append([]byte(nil), whole...)
			data[HeaderSize+r*RecordSize+off] ^= 0x40
			ups, consumed := Replay(data)
			if len(ups) != r {
				t.Fatalf("flip rec %d byte %d: replayed %d, want %d", r, off, len(ups), r)
			}
			if consumed != HeaderSize+r*RecordSize {
				t.Fatalf("flip rec %d byte %d: consumed %d", r, off, consumed)
			}
		}
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("NOTAWAL0________"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil {
		t.Fatal("Open accepted a non-WAL file")
	}
	// A wrong version is the same refusal.
	h := header()
	binary.LittleEndian.PutUint32(h[4:8], 99)
	if err := os.WriteFile(path, h, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil {
		t.Fatal("Open accepted an unknown WAL version")
	}
}

func TestShortFileRecreated(t *testing.T) {
	// A file shorter than the header means the process died while
	// creating the log; Open must recover to a clean empty log.
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("PW"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, ups, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(ups) != 0 {
		t.Fatalf("replayed %d updates from torn header", len(ups))
	}
	if err := l.Append(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	l.Close()
}

func TestTruncateFront(t *testing.T) {
	l, path := openEmpty(t)
	all := []Update{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 4, 4}}
	for _, up := range all {
		if err := l.Append(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateFront(3); err != nil {
		t.Fatalf("TruncateFront: %v", err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len after truncate = %d", l.Len())
	}
	// Appends continue on the rewritten file.
	if err := l.Append(7, 8, 9); err != nil {
		t.Fatalf("append after TruncateFront: %v", err)
	}
	l.Close()
	_, ups, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Update{{3, 4, 4}, {7, 8, 9}}
	if len(ups) != len(want) {
		t.Fatalf("replayed %d, want %d", len(ups), len(want))
	}
	for i := range want {
		if ups[i] != want[i] {
			t.Fatalf("update %d = %v, want %v", i, ups[i], want[i])
		}
	}
	// Dropping everything leaves a bare header.
	l2, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.TruncateFront(2); err != nil {
		t.Fatal(err)
	}
	if got := l2.Bytes(); got != HeaderSize {
		t.Fatalf("Bytes after full truncate = %d", got)
	}
	if err := l2.TruncateFront(1); err == nil {
		t.Fatal("TruncateFront beyond length accepted")
	}
	l2.Close()
}

// TestReplayIdempotentAfterReopen re-opens an already-truncated log and
// checks the replay is byte-for-byte stable (no record is re-framed
// differently on rewrite).
func TestReplayIdempotentAfterReopen(t *testing.T) {
	l, path := openEmpty(t)
	for i := graph.Vertex(0); i < 6; i++ {
		if err := l.Append(i, i+10, 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateFront(2); err != nil {
		t.Fatal(err)
	}
	l.Close()
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l2, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("reopen changed the log bytes")
	}
}

// TestFailedSyncPoisonsLog: a record whose write succeeds and whose
// fsync fails may or may not be on disk, and the in-memory mirror does
// not hold it; an append acknowledged after it could be truncated away
// behind a torn copy of it. So the log fails for good: that Append and
// every later one wrap ErrFailed, the later ones without touching the
// file; Err reports the first failure; TruncateFront leaves the file and
// the handle alone; and reopening the file replays what was
// acknowledged, followed at most by the record whose fsync failed.
func TestFailedSyncPoisonsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	failSync := false
	x := &faultfs.FS{Hook: func(op faultfs.Op) faultfs.Fault {
		if failSync && op.Kind == faultfs.Sync {
			return faultfs.IOError
		}
		return faultfs.None
	}}
	l, _, err := OpenFS(x, path)
	if err != nil {
		t.Fatal(err)
	}
	acked := []Update{{U: 0, V: 1, W: 7}, {U: 3, V: 2, W: 1}}
	for _, up := range acked {
		if err := l.Append(up.U, up.V, up.W); err != nil {
			t.Fatalf("Append(%v): %v", up, err)
		}
	}
	if err := l.Err(); err != nil {
		t.Fatalf("Err() of a healthy log = %v", err)
	}

	failSync = true
	first := l.Append(4, 5, 9)
	if !errors.Is(first, ErrFailed) {
		t.Fatalf("Append with a failing fsync = %v, want an error wrapping ErrFailed", first)
	}
	ops := len(x.Ops())
	second := l.Append(6, 7, 2)
	if !errors.Is(second, ErrFailed) {
		t.Fatalf("Append on the failed log = %v, want an error wrapping ErrFailed", second)
	}
	if l.Len() != len(acked) || l.Bytes() != int64(HeaderSize+RecordSize*len(acked)) {
		t.Fatalf("failed appends moved the mirror: Len %d, Bytes %d", l.Len(), l.Bytes())
	}
	if err := l.Err(); err != first {
		t.Fatalf("Err() = %v, want the first failure %v", err, first)
	}
	// A failed log is not rewritten from the mirror either: the file and
	// the handle stay as the failure left them.
	l.mu.Lock()
	handle := l.f
	l.mu.Unlock()
	if err := l.TruncateFront(1); !errors.Is(err, ErrFailed) {
		t.Fatalf("TruncateFront on the failed log = %v, want an error wrapping ErrFailed", err)
	}
	l.mu.Lock()
	swapped := l.f != handle
	l.mu.Unlock()
	if more := x.Ops()[ops:]; len(more) != 0 || swapped || l.Len() != len(acked) {
		t.Fatalf("the failed log went on to %v, handle swapped %v, Len %d", more, swapped, l.Len())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, ups, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(ups) < len(acked) || len(ups) > len(acked)+1 || ups[0] != acked[0] || ups[1] != acked[1] ||
		len(ups) > len(acked) && ups[len(acked)] != (Update{U: 4, V: 5, W: 9}) {
		t.Fatalf("reopen replayed %v, want the acknowledged %v and at most the record whose fsync failed", ups, acked)
	}
}
