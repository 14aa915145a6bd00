// Package wal is the durable edge-update log of the living-graph
// pipeline: every InsertEdge a serving process accepts is appended here
// — and fsynced — before it touches the in-memory index, so a crash at
// any instant loses nothing that was acknowledged. On restart the log
// is replayed on top of the last compacted checkpoint to reconstruct
// the exact pre-crash state.
//
// # Record format
//
// The log is a single file: a 16-byte header followed by fixed-width
// 16-byte records, all little-endian.
//
//	header: "PWAL" magic | uint32 version (1) | 8 reserved zero bytes
//	record: uint32 u | uint32 v | uint32 w | uint32 crc
//
// crc is the IEEE CRC-32 of the record's first 12 bytes. Fixed-width
// framing makes crash recovery a pure prefix computation: a torn final
// record is simply a file length that is not a whole number of records,
// and a bit flip anywhere turns its record's CRC red. In both cases
// replay keeps the longest consistent prefix and Open truncates the
// rest away — the LSM-style WAL discipline, where the tail beyond the
// last durable record is garbage by definition.
//
// # Decoding invariants
//
// Replay is a wire decoder and is held to the same rules as the cluster
// frame and PIDM parsers (the infguard analyzer's contract): a decoded
// weight is bounds-checked against graph.Inf before it becomes a
// graph.Dist, and decoded endpoints must be distinct, in-int32-range
// vertex ids. A CRC-valid record violating either can only be
// corruption that collided with the checksum; it ends the consistent
// prefix rather than entering the index.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"
	"time"

	"parapll/internal/fileio"
	"parapll/internal/graph"
)

// Update is one logged edge insertion.
type Update struct {
	U, V graph.Vertex
	W    graph.Dist
}

const (
	// HeaderSize is the byte length of the file header.
	HeaderSize = 16
	// RecordSize is the byte length of one framed record.
	RecordSize = 16

	version = 1
)

var magic = [4]byte{'P', 'W', 'A', 'L'}

// header returns the canonical 16-byte file header.
func header() []byte {
	h := make([]byte, HeaderSize)
	copy(h, magic[:])
	binary.LittleEndian.PutUint32(h[4:8], version)
	return h
}

// encodeRecord frames one update into dst (len >= RecordSize).
func encodeRecord(dst []byte, up Update) {
	binary.LittleEndian.PutUint32(dst[0:4], uint32(up.U))
	binary.LittleEndian.PutUint32(dst[4:8], uint32(up.V))
	binary.LittleEndian.PutUint32(dst[8:12], uint32(up.W))
	binary.LittleEndian.PutUint32(dst[12:16], crc32.ChecksumIEEE(dst[0:12]))
}

// decodeRecord parses one framed record, reporting ok=false for any
// frame that must end the consistent prefix: CRC mismatch, endpoint
// out of the int32 vertex-id range, a self loop, or a weight that
// would decode to the Inf sentinel (an Inf "distance" must never enter
// the index as a finite label, so a frame carrying one is corruption
// no matter what its checksum says).
func decodeRecord(rec []byte) (Update, bool) {
	if crc32.ChecksumIEEE(rec[0:12]) != binary.LittleEndian.Uint32(rec[12:16]) {
		return Update{}, false
	}
	ru := binary.LittleEndian.Uint32(rec[0:4])
	rv := binary.LittleEndian.Uint32(rec[4:8])
	rw := binary.LittleEndian.Uint32(rec[8:12])
	if ru > math.MaxInt32 || rv > math.MaxInt32 || ru == rv {
		return Update{}, false
	}
	if rw >= graph.Inf || rw == 0 {
		return Update{}, false
	}
	return Update{U: graph.Vertex(ru), V: graph.Vertex(rv), W: graph.Dist(rw)}, true
}

// Replay decodes the longest consistent prefix of a WAL file image and
// returns its updates plus the byte length of that prefix. A file too
// short for the header, or with a wrong magic or version, replays as
// empty with consumed 0 (the caller decides whether that is a fresh
// log or an error). Replay never fails and never panics: anything
// beyond the consistent prefix is ignored, which is exactly the crash
// semantics Open enforces on disk by truncation.
func Replay(data []byte) (ups []Update, consumed int) {
	if len(data) < HeaderSize {
		return nil, 0
	}
	if string(data[0:4]) != string(magic[:]) ||
		binary.LittleEndian.Uint32(data[4:8]) != version {
		return nil, 0
	}
	consumed = HeaderSize
	for consumed+RecordSize <= len(data) {
		up, ok := decodeRecord(data[consumed : consumed+RecordSize])
		if !ok {
			break
		}
		ups = append(ups, up)
		consumed += RecordSize
	}
	return ups, consumed
}

// ErrFailed is wrapped by the Append whose write or fsync failed and by
// every Append and TruncateFront after it, and by the TruncateFront that
// failed after its rewrite took the log's name. What reached the disk is then
// unknown — a record can sit in the file, or in the page cache, that the
// in-memory mirror does not hold — so the log takes no record after it:
// one appended behind a torn copy of it would be acknowledged and then
// truncated away by the next replay. Nor is the file rewritten from the
// mirror: the handle that failed stays the only one the log ever had,
// and the file stays what the next Open's torn-tail path heals.
var ErrFailed = errors.New("wal: log failed, restart to recover")

// Log is an append-only edge-update log bound to one file. All methods
// are safe for concurrent use, but the intended discipline is the
// pipeline's: a single writer appends, truncation happens inside the
// writer's critical section, and readers consume the Updates snapshot
// the writer hands them.
type Log struct {
	mu    sync.Mutex
	fs    fileio.FS
	path  string
	f     fileio.File
	ups   []Update
	bytes int64
	// failed is the first write or fsync error, or the error of a
	// TruncateFront past its rename (wrapping ErrFailed); once set, Append
	// and TruncateFront return it without touching the file.
	failed error

	// syncObs, when set, is called with the duration of each successful
	// Append fsync — the living-graph pipeline's durability latency, and
	// the signal the anomaly watchdog turns into a WAL-fsync SLO. Set
	// under mu (SetSyncObserver) and read under mu (Append), so no
	// atomics are needed.
	syncObs func(elapsed time.Duration)
}

// SetSyncObserver installs (or, with nil, removes) the per-Append fsync
// latency callback. The observer runs inside Append's critical section
// and must be cheap and non-blocking — a histogram Observe, not I/O.
func (l *Log) SetSyncObserver(f func(elapsed time.Duration)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncObs = f
}

// Open opens (or creates) the log at path and replays it. Any torn or
// corrupt tail is truncated away on disk — the file always ends at the
// last durable record afterwards — and the surviving updates are
// returned in append order. The returned slice is the caller's to keep;
// it is not aliased by the Log's own state.
func Open(path string) (*Log, []Update, error) { return OpenFS(fileio.OS, path) }

// OpenFS is Open with every write to the log — this one's and those of
// the returned Log — going through fsys.
func OpenFS(fsys fileio.FS, path string) (*Log, []Update, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		data = nil
	} else if err != nil {
		return nil, nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	var ups []Update
	consumed := 0
	fresh := len(data) < HeaderSize
	if !fresh {
		ups, consumed = Replay(data)
		if consumed == 0 {
			return nil, nil, fmt.Errorf("wal: %s exists but is not a parapll WAL (bad magic or version)", path)
		}
	}
	if fresh {
		// Missing, empty, or torn mid-header-write: (re)create with a
		// clean header through the atomic-write discipline so a crash
		// here cannot leave a half-written header behind either.
		if err := fileio.WriteAtomic(fsys, path, func(f fileio.File) error {
			_, werr := f.Write(header())
			return werr
		}); err != nil {
			return nil, nil, fmt.Errorf("wal: creating %s: %w", path, err)
		}
		consumed = HeaderSize
	} else if consumed < len(data) {
		// Torn or corrupt tail: drop it so the next append starts at a
		// record boundary and a future replay sees only durable records.
		if err := truncateTo(fsys, path, int64(consumed)); err != nil {
			return nil, nil, err
		}
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s for append: %w", path, err)
	}
	l := &Log{fs: fsys, path: path, f: f, bytes: int64(consumed)}
	l.ups = append(l.ups, ups...)
	out := make([]Update, len(ups))
	copy(out, ups)
	return l, out, nil
}

// truncateTo shrinks the file to n bytes and fsyncs, making the
// discarded tail durably gone before any new record lands after it.
func truncateTo(fsys fileio.FS, path string, n int64) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncating %s: %w", path, err)
	}
	err = f.Truncate(n)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: truncating %s to %d bytes: %w", path, n, err)
	}
	return nil
}

// Append frames, writes and fsyncs one update. It returns only after
// the record is durable, so an acknowledged insert survives kill -9.
// Updates the in-memory mirror only on success: a failed or partial
// write leaves a torn tail for the next Open to truncate, never a
// phantom in-memory record — and fails the log for good (ErrFailed).
func (l *Log) Append(u, v graph.Vertex, w graph.Dist) error {
	if u == v || int32(u) < 0 || int32(v) < 0 {
		return fmt.Errorf("wal: invalid edge {%d,%d}", u, v)
	}
	if w == 0 || w >= graph.Inf {
		return fmt.Errorf("wal: invalid weight %d (want 0 < w < Inf)", w)
	}
	var rec [RecordSize]byte
	encodeRecord(rec[:], Update{U: u, V: v, W: w})
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if _, err := l.f.Write(rec[:]); err != nil {
		l.failed = fmt.Errorf("%w: appending to %s: %w", ErrFailed, l.path, err)
		return l.failed
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("%w: fsync of %s: %w", ErrFailed, l.path, err)
		return l.failed
	}
	if l.syncObs != nil {
		l.syncObs(time.Since(t0))
	}
	l.ups = append(l.ups, Update{U: u, V: v, W: w})
	l.bytes += RecordSize
	return nil
}

// Fail fails the log with cause, wrapped in ErrFailed, unless it has
// failed already. It is the writer's stop after a durable record it
// could not apply: the log takes no record after it, and the next Open
// replays it.
func (l *Log) Fail(cause error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed == nil {
		l.failed = fmt.Errorf("%w: %w", ErrFailed, cause)
	}
}

// Err returns the error that failed the log (it wraps ErrFailed), nil
// while the log takes appends.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Len returns the number of durable records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ups)
}

// Bytes returns the current on-disk size (header + records).
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Updates returns the in-memory mirror of the durable records, oldest
// first. The slice is a copy; the caller may keep it across appends.
func (l *Log) Updates() []Update {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Update, len(l.ups))
	copy(out, l.ups)
	return out
}

// TruncateFront durably drops the first n records — the ones a
// completed compaction has folded into the checkpoint artifact. The
// rewrite goes through the same atomic temp-file + fsync + rename +
// directory-fsync discipline as every other artifact in the repo, so a
// crash mid-truncation leaves either the old log (records replay
// idempotently on top of the new checkpoint) or the new one, never a
// mangled hybrid. A failed log is left alone (ErrFailed). A failure
// before the rewrite's rename leaves the log as it was; one after it
// fails the log, since the handle appends go through may then name the
// renamed-over file, where an acknowledged record would be lost.
func (l *Log) TruncateFront(n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if n <= 0 {
		return nil
	}
	if n > len(l.ups) {
		return fmt.Errorf("wal: TruncateFront(%d) beyond %d records", n, len(l.ups))
	}
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	rest := l.ups[n:]
	err := fileio.WriteAtomic(l.fs, l.path, func(f fileio.File) error {
		if _, werr := f.Write(header()); werr != nil {
			return werr
		}
		var rec [RecordSize]byte
		for _, up := range rest {
			encodeRecord(rec[:], up)
			if _, werr := f.Write(rec[:]); werr != nil {
				return werr
			}
		}
		return nil
	})
	if errors.Is(err, fileio.ErrRenamed) {
		l.failed = fmt.Errorf("%w: rewriting %s: %w", ErrFailed, l.path, err)
		return l.failed
	}
	if err != nil {
		return fmt.Errorf("wal: rewriting %s: %w", l.path, err)
	}
	// The old handle points at the renamed-over inode; appends go to the
	// new file or, past the rename, to none.
	err = l.f.Close()
	l.f = nil
	var f fileio.File
	if err == nil {
		f, err = l.fs.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		l.failed = fmt.Errorf("%w: reopening %s: %w", ErrFailed, l.path, err)
		return l.failed
	}
	l.f = f
	kept := make([]Update, len(rest))
	copy(kept, rest)
	l.ups = kept
	l.bytes = int64(HeaderSize + RecordSize*len(kept))
	return nil
}

// Close releases the file handle. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
