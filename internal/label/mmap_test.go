package label

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parapll/internal/graph"
)

// mmapTestIndex builds a small index with a mix of list lengths,
// including an empty list, through the public finalizer: hubs 0 and 1
// are head columns, hubs 2 and 3 stay in the tails.
func mmapTestIndex() *Index {
	return NewIndexFromLists([][]Entry{
		{{Hub: 0, D: 0}, {Hub: 1, D: 3}, {Hub: 2, D: 7}},
		{{Hub: 0, D: 3}, {Hub: 1, D: 0}},
		{}, // isolated vertex
		{{Hub: 0, D: 12}, {Hub: 1, D: 9}, {Hub: 3, D: 0}},
	})
}

// pidmBytes serializes x in the PIDM format.
func pidmBytes(t *testing.T, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := x.WriteMmap(&buf); err != nil {
		t.Fatalf("WriteMmap: %v", err)
	}
	return buf.Bytes()
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.midx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMmapRoundTrip(t *testing.T) {
	x := mmapTestIndex()
	y, err := Open(writeTemp(t, pidmBytes(t, x)))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer y.Close()

	if !x.Equal(y) {
		t.Fatal("mmap round trip changed index")
	}
	if y.Format() != FormatMmap {
		t.Fatalf("Format() = %q, want %q", y.Format(), FormatMmap)
	}
	n := x.NumVertices()
	for s := 0; s < n; s++ {
		for u := 0; u < n; u++ {
			sv, uv := graph.Vertex(s), graph.Vertex(u)
			if got, want := y.Query(sv, uv), x.Query(sv, uv); got != want {
				t.Fatalf("Query(%d,%d) = %d, want %d", s, u, got, want)
			}
			gd, gh := y.QueryWithHub(sv, uv)
			wd, wh := x.QueryWithHub(sv, uv)
			if gd != wd || gh != wh {
				t.Fatalf("QueryWithHub(%d,%d) = (%d,%d), want (%d,%d)", s, u, gd, gh, wd, wh)
			}
		}
	}
	if err := y.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := y.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := y.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
}

func TestMmapEmptyIndex(t *testing.T) {
	x := NewIndexFromLists(nil)
	y, err := Open(writeTemp(t, pidmBytes(t, x)))
	if err != nil {
		t.Fatalf("Open empty: %v", err)
	}
	defer y.Close()
	if y.NumVertices() != 0 || y.NumEntries() != 0 {
		t.Fatalf("empty index decoded as n=%d total=%d", y.NumVertices(), y.NumEntries())
	}
}

// fixHeaderCRC recomputes the header checksum after a deliberate header
// mutation, so the test reaches the validation step it is aiming at.
func fixHeaderCRC(data []byte) {
	end := mmapHeaderV2
	if binary.LittleEndian.Uint32(data[4:8]) == 1 {
		end = mmapHeaderV1
	}
	binary.LittleEndian.PutUint32(data[end-4:], crc32.ChecksumIEEE(data[:end-4]))
}

// resealPIDM recomputes every checksum of a version 2 file after a
// deliberate mutation, so that only the entries are wrong: the file a
// bit flip before the CRCs were taken, or a foreign writer, leaves behind.
func resealPIDM(t *testing.T, data []byte) {
	t.Helper()
	fixHeaderCRC(data)
	h, err := parsePIDM(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.lo {
		binary.LittleEndian.PutUint32(data[80+4*i:], crc32.ChecksumIEEE(data[h.lo[i]:h.lo[i]+h.size[i]]))
	}
	fixHeaderCRC(data)
}

// TestVerifyChecksEntriesAgainstHead: a file whose container and
// checksums are in order but whose entries contradict its head opens —
// Open reads no entry — and is caught by Verify and by the stream reader.
func TestVerifyChecksEntriesAgainstHead(t *testing.T) {
	base := pidmBytes(t, mmapTestIndex()) // head columns 0 and 1; tail entries (v0: hub 2), (v3: hub 3)
	h, err := parsePIDM(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		mutate  func(d []byte)
		wantErr string
		verify  bool // Verify rejects it too, not only the stream reader
	}{
		{"tail entry names a head hub", func(d []byte) {
			binary.LittleEndian.PutUint32(d[h.lo[secHubs]:], 1)
		}, "hub 1 is a head column", true},
		{"one entry more than the sections hold", func(d []byte) {
			binary.LittleEndian.PutUint64(d[16:24], uint64(h.total)+1)
		}, "header counts 9 entries, sections hold 8", true},
		{"head slot emptied", func(d []byte) {
			binary.LittleEndian.PutUint32(d[h.lo[secHead]:], uint32(graph.Inf))
		}, "header counts 8 entries, sections hold 7", true},
		{"infinite tail distance", func(d []byte) {
			binary.LittleEndian.PutUint32(d[h.lo[secDists]:], uint32(graph.Inf))
		}, "distance overflow", false},
		{"tail hub that is no vertex", func(d []byte) {
			binary.LittleEndian.PutUint32(d[h.lo[secHubs]+4:], 4)
		}, "hub 4 out of range", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := bytes.Clone(base)
			tc.mutate(data)
			resealPIDM(t, data)
			x, err := Open(writeTemp(t, data))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer x.Close()
			if err := x.Verify(); tc.verify && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("Verify: %v, want %q", err, tc.wantErr)
			} else if !tc.verify && err != nil {
				t.Fatalf("Verify: %v, want nil (the checksums agree and the head is consistent)", err)
			}
			if _, err := ReadAny(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ReadAny: %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// TestOpenDecodesWhereItCannotAlias: a container whose base address is
// not 8-byte aligned (or a big-endian host) cannot be aliased in place;
// the sections are decoded into fresh slices instead, and the index is
// the same one.
func TestOpenDecodesWhereItCannotAlias(t *testing.T) {
	want := batchTestIndex(rand.New(rand.NewSource(43)), 90)
	file := pidmBytes(t, want)
	for _, data := range [][]byte{file, pidmV1Bytes(want)} {
		shifted := append(make([]byte, 1, len(data)+1), data...)[1:] // base % 8 == 1
		x, err := openMapping(&mapping{data: shifted})
		if err != nil {
			t.Fatalf("openMapping: %v", err)
		}
		copy(shifted, make([]byte, len(shifted))) // zero the container: an alias would see it
		if !x.Equal(want) {
			t.Fatal("decoded index differs from the one written, or still aliases its container")
		}
	}
}

func TestMmapCorruptFrames(t *testing.T) {
	base := pidmBytes(t, mmapTestIndex())
	if k, _ := mmapTestIndex().Head(); k != 2 {
		t.Fatalf("fixture has %d head columns; the head cases below assume hubs 0 and 1", k)
	}
	cases := []struct {
		name    string
		mutate  func(data []byte) []byte
		wantErr string
	}{
		// mapFile's own size guard may fire before parsePIDM's.
		{"truncated header", func(d []byte) []byte { return d[:32] }, "too small|truncated header"},
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }, "bad magic"},
		{"bad version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[4:8], 99)
			fixHeaderCRC(d)
			return d
		}, "unsupported version"},
		{"header checksum", func(d []byte) []byte { d[9] ^= 0xff; return d }, "header checksum"},
		{"vertex count overflow", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[8:16], math.MaxInt32+1)
			fixHeaderCRC(d)
			return d
		}, "vertex count"},
		{"entry count overflow", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[24:32], uint64(maxMmapEntries)+1)
			fixHeaderCRC(d)
			return d
		}, "entry count"},
		{"misaligned section offset", func(d []byte) []byte {
			v := binary.LittleEndian.Uint64(d[64:72]) // the hubs section
			binary.LittleEndian.PutUint64(d[64:72], v+4)
			fixHeaderCRC(d)
			return d
		}, "misaligned"},
		{"inconsistent section offset", func(d []byte) []byte {
			v := binary.LittleEndian.Uint64(d[64:72])
			binary.LittleEndian.PutUint64(d[64:72], v+mmapAlign)
			fixHeaderCRC(d)
			return d
		}, "inconsistent"},
		{"truncated section", func(d []byte) []byte { return d[:len(d)-8] }, "truncated section"},
		{"offset zero broken", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[mmapHeaderV2:], 1)
			return d
		}, "corrupt offsets"},
		{"offsets not monotone", func(d []byte) []byte {
			// off[1] jumps past off[2]; off[0] and off[n] stay valid.
			binary.LittleEndian.PutUint64(d[mmapHeaderV2+8:], 1<<40)
			return d
		}, "not monotone"},
		{"more head columns than vertices", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[32:40], 9)
			fixHeaderCRC(d)
			return d
		}, "head columns"},
		{"head slot count overflow", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[8:16], math.MaxInt32)
			binary.LittleEndian.PutUint64(d[32:40], math.MaxInt32)
			fixHeaderCRC(d)
			return d
		}, "head columns"},
		{"entries the sections cannot hold", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[16:24], 100)
			fixHeaderCRC(d)
			return d
		}, "entries cannot be"},
		{"fewer entries than the tail", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[16:24], 1)
			fixHeaderCRC(d)
			return d
		}, "entries cannot be"},
		{"head column out of range", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[binary.LittleEndian.Uint64(d[48:56]):], 4)
			return d
		}, "head column 0"},
		{"head columns out of order", func(d []byte) []byte {
			hh := binary.LittleEndian.Uint64(d[48:56])
			binary.LittleEndian.PutUint32(d[hh:], 1)
			binary.LittleEndian.PutUint32(d[hh+4:], 0)
			return d
		}, "head column 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(bytes.Clone(base))
			if _, err := Open(writeTemp(t, data)); err == nil {
				t.Fatal("Open accepted corrupt file")
			} else if !containsAny(err.Error(), strings.Split(tc.wantErr, "|")) {
				t.Fatalf("Open error %q does not mention %q", err, tc.wantErr)
			}
			if _, err := ReadAny(bytes.NewReader(data)); err == nil {
				t.Fatal("ReadAny accepted corrupt file")
			}
		})
	}
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// A flipped payload byte leaves the structure valid: Open deliberately
// skips the O(bytes) section checksums (that is what makes open O(1)),
// Verify catches it on demand, and the stream path always catches it.
func TestMmapSectionCorruptionDeferred(t *testing.T) {
	x := mmapTestIndex()
	data := pidmBytes(t, x)
	h, err := parsePIDM(data)
	if err != nil {
		t.Fatal(err)
	}
	data[h.lo[secHubs]] ^= 0xff

	y, err := Open(writeTemp(t, data))
	if err != nil {
		t.Fatalf("Open rejected structurally valid file: %v", err)
	}
	defer y.Close()
	if err := y.Verify(); err == nil {
		t.Fatal("Verify missed flipped section byte")
	} else if !strings.Contains(err.Error(), "hubs section checksum") {
		t.Fatalf("Verify error %q does not name the hubs section", err)
	}
	if _, err := ReadAny(bytes.NewReader(data)); err == nil {
		t.Fatal("ReadAny missed flipped section byte")
	}
}

func TestReadAnySniffsAllFormats(t *testing.T) {
	x := mmapTestIndex()
	writers := map[string]func(*Index, *bytes.Buffer) error{
		FormatFixed:   func(x *Index, b *bytes.Buffer) error { return x.Write(b) },
		FormatCompact: func(x *Index, b *bytes.Buffer) error { return x.WriteCompact(b) },
		FormatMmap:    func(x *Index, b *bytes.Buffer) error { return x.WriteMmap(b) },
	}
	for format, write := range writers {
		var buf bytes.Buffer
		if err := write(x, &buf); err != nil {
			t.Fatalf("%s: write: %v", format, err)
		}
		y, err := ReadAny(&buf)
		if err != nil {
			t.Fatalf("%s: ReadAny: %v", format, err)
		}
		if !x.Equal(y) {
			t.Fatalf("%s: ReadAny changed index", format)
		}
		if y.Format() != format {
			t.Fatalf("%s: Format() = %q", format, y.Format())
		}
	}
	if _, err := ReadAny(bytes.NewReader([]byte("what is this"))); err == nil {
		t.Fatal("ReadAny accepted junk")
	}
	if _, err := ReadAny(bytes.NewReader(nil)); err == nil {
		t.Fatal("ReadAny accepted empty input")
	}
}

func TestOpenAnyZeroCopyOnlyForPIDM(t *testing.T) {
	x := mmapTestIndex()
	dir := t.TempDir()
	for _, format := range []string{FormatFixed, FormatCompact, FormatMmap} {
		var buf bytes.Buffer
		var err error
		switch format {
		case FormatFixed:
			err = x.Write(&buf)
		case FormatCompact:
			err = x.WriteCompact(&buf)
		case FormatMmap:
			err = x.WriteMmap(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Deliberately mismatched extension: dispatch is by content.
		path := filepath.Join(dir, format+".whatever")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		y, err := OpenAny(path)
		if err != nil {
			t.Fatalf("%s: OpenAny: %v", format, err)
		}
		if !x.Equal(y) {
			t.Fatalf("%s: OpenAny changed index", format)
		}
		if format == FormatMmap && !y.Mapped() && mappedExpected() {
			t.Fatal("PIDM file did not open as a mapping")
		}
		if format != FormatMmap && y.Mapped() {
			t.Fatalf("%s: heap format claims to be mapped", format)
		}
		y.Close()
	}
}

// mappedExpected reports whether this platform's Open produces a real
// OS mapping (the !unix fallback heap-loads instead).
func mappedExpected() bool {
	mm, err := mapFile("/dev/null")
	if err != nil {
		return false
	}
	defer mm.close()
	return mm.mapped
}

// TestCrossFormatEquivalence is the property test behind the "any
// format may live under any extension" contract: random indexes round
// trip through all three formats and answer identically.
func TestCrossFormatEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + r.Intn(12)
		lists := make([][]Entry, n)
		for v := range lists {
			for k := r.Intn(5); k > 0; k-- {
				lists[v] = append(lists[v], Entry{
					Hub: graph.Vertex(r.Intn(n)),
					D:   graph.Dist(r.Intn(100)),
				})
			}
		}
		x := NewIndexFromLists(lists)

		var fixed, compact, mm bytes.Buffer
		if err := x.Write(&fixed); err != nil {
			t.Fatal(err)
		}
		if err := x.WriteCompact(&compact); err != nil {
			t.Fatal(err)
		}
		if err := x.WriteMmap(&mm); err != nil {
			t.Fatal(err)
		}
		ys := make([]*Index, 0, 3)
		for _, buf := range []*bytes.Buffer{&fixed, &compact, &mm} {
			y, err := ReadAny(buf)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			ys = append(ys, y)
		}
		for probe := 0; probe < 50; probe++ {
			s := graph.Vertex(r.Intn(n))
			u := graph.Vertex(r.Intn(n))
			wd, wh := x.QueryWithHub(s, u)
			for i, y := range ys {
				gd, gh := y.QueryWithHub(s, u)
				if gd != wd || gh != wh {
					t.Fatalf("trial %d format %d: QueryWithHub(%d,%d) = (%d,%d), want (%d,%d)",
						trial, i, s, u, gd, gh, wd, wh)
				}
			}
		}
	}
}

func BenchmarkOpenMmap(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	lists := make([][]Entry, 2000)
	for v := range lists {
		for j := 0; j < 20; j++ {
			lists[v] = append(lists[v], Entry{Hub: graph.Vertex(r.Intn(2000)), D: graph.Dist(r.Intn(1000))})
		}
	}
	x := NewIndexFromLists(lists)
	var buf bytes.Buffer
	if err := x.WriteMmap(&buf); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "x.midx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		y.Close()
	}
}

// writeMmapWordwise lays the PIDM file out in memory one word at a time,
// straight from the format comment — the reference the block encoder in
// WriteMmap must match byte for byte.
func writeMmapWordwise(x *Index) []byte {
	n, k, tail := x.NumVertices(), len(x.headHubs), int64(len(x.hubs))
	lo, size, fileSize := mmapLayout(mmapHeaderV2, n, k, tail)
	out := make([]byte, fileSize)
	copy(out[0:4], mmapMagic)
	binary.LittleEndian.PutUint32(out[4:8], 2)
	binary.LittleEndian.PutUint64(out[8:16], uint64(n))
	binary.LittleEndian.PutUint64(out[16:24], uint64(x.NumEntries()))
	binary.LittleEndian.PutUint64(out[24:32], uint64(tail))
	binary.LittleEndian.PutUint64(out[32:40], uint64(k))
	for i, o := range x.off {
		binary.LittleEndian.PutUint64(out[lo[secOff]+uint64(i)*8:], uint64(o))
	}
	for i, h := range x.headHubs {
		binary.LittleEndian.PutUint32(out[lo[secHeadHubs]+uint64(i)*4:], uint32(h))
	}
	for i, d := range x.head {
		binary.LittleEndian.PutUint32(out[lo[secHead]+uint64(i)*4:], uint32(d))
	}
	for i, h := range x.hubs {
		binary.LittleEndian.PutUint32(out[lo[secHubs]+uint64(i)*4:], uint32(h))
	}
	for i, d := range x.dists {
		binary.LittleEndian.PutUint32(out[lo[secDists]+uint64(i)*4:], uint32(d))
	}
	for i := range lo {
		binary.LittleEndian.PutUint64(out[40+8*i:], lo[i])
		binary.LittleEndian.PutUint32(out[80+4*i:], crc32.ChecksumIEEE(out[lo[i]:lo[i]+size[i]]))
	}
	binary.LittleEndian.PutUint32(out[124:128], crc32.ChecksumIEEE(out[0:124]))
	return out
}

// pidmV1Bytes hand-builds the version 1 PIDM file of x's labels — the
// format every file written before the head existed is in: a 64-byte
// header and the off, hubs and dists sections of the whole labels.
func pidmV1Bytes(x *Index) []byte {
	x = x.Flat()
	n, total := x.NumVertices(), x.NumEntries()
	lo, size, fileSize := mmapLayout(mmapHeaderV1, n, 0, total)
	out := make([]byte, fileSize)
	copy(out[0:4], mmapMagic)
	binary.LittleEndian.PutUint32(out[4:8], 1)
	binary.LittleEndian.PutUint64(out[8:16], uint64(n))
	binary.LittleEndian.PutUint64(out[16:24], uint64(total))
	for i, o := range x.off {
		binary.LittleEndian.PutUint64(out[lo[secOff]+uint64(i)*8:], uint64(o))
	}
	for i, h := range x.hubs {
		binary.LittleEndian.PutUint32(out[lo[secHubs]+uint64(i)*4:], uint32(h))
		binary.LittleEndian.PutUint32(out[lo[secDists]+uint64(i)*4:], uint32(x.dists[i]))
	}
	for j, i := range []int{secOff, secHubs, secDists} {
		binary.LittleEndian.PutUint64(out[24+8*j:], lo[i])
		binary.LittleEndian.PutUint32(out[48+4*j:], crc32.ChecksumIEEE(out[lo[i]:lo[i]+size[i]]))
	}
	binary.LittleEndian.PutUint32(out[60:64], crc32.ChecksumIEEE(out[0:60]))
	return out
}

// TestWriteMmapBytesUnchanged pins the PIDM writer's output: equal to
// the wordwise reference on indexes whose sections are empty, shorter
// than one encoding block and several blocks long, with a head and
// without; for the long one, equal to the SHA-256 recorded when the
// format became version 2 — and, as a version 1 file, to the one the
// version 1 writer produced, so the labels under the new bytes are the
// old ones.
func TestWriteMmapBytesUnchanged(t *testing.T) {
	big := randomIndex(9, 3*pidmBlock/8, 12) // off section spans three blocks, hubs and dists more
	for name, x := range map[string]*Index{
		"empty": NewIndex(NewStore(0)), "no-labels": NewIndex(NewStore(7)), "small": mmapTestIndex(), "big": big,
		"batch-shaped": batchTestIndex(rand.New(rand.NewSource(3)), 3*pidmBlock/8),
	} {
		if got := pidmBytes(t, x); !bytes.Equal(got, writeMmapWordwise(x)) {
			t.Errorf("%s: WriteMmap differs from the wordwise reference", name)
		}
	}
	const wantV1 = "f3632900fef5fa94646f83b528dff80643da5df0c8eb74862a4f6af144cdc115"
	if got := fmt.Sprintf("%x", sha256.Sum256(pidmV1Bytes(big))); got != wantV1 {
		t.Errorf("big fixture as a version 1 file hashes to %s, want %s", got, wantV1)
	}
	const want = "8dfd7640b82be2fa8cc5bc1afe30ad9e51c6a76337e0402f3dcfdcb956ac9450"
	if got := fmt.Sprintf("%x", sha256.Sum256(pidmBytes(t, big))); got != want {
		t.Errorf("big fixture hashes to %s, want %s", got, want)
	}
}

// TestOpenVersion1 opens a file in the format every PIDM written before
// the head existed is in: it maps, verifies, reads as K = 0 and is Equal
// to — and answers as — the version 2 file of the same labels, which in
// turn is what rewriting it produces.
func TestOpenVersion1(t *testing.T) {
	x := batchTestIndex(rand.New(rand.NewSource(41)), 150)
	if k, _ := x.Head(); k == 0 {
		t.Fatal("fixture has no head: nothing to compare a headless file with")
	}
	old, err := Open(writeTemp(t, pidmV1Bytes(x)))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer old.Close()
	if err := old.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if k, density := old.Head(); k != 0 || density != 0 {
		t.Fatalf("version 1 file opened with head K=%d density %g", k, density)
	}
	if !old.Equal(x) || !x.Equal(old) || old.NumEntries() != x.NumEntries() || old.AvgLabelSize() != x.AvgLabelSize() {
		t.Fatal("version 1 file does not hold the labels it was built from")
	}
	for s := 0; s < 150; s++ {
		for u := 0; u < 150; u += 7 {
			gd, gh := old.QueryWithHub(graph.Vertex(s), graph.Vertex(u))
			wd, wh := x.QueryWithHub(graph.Vertex(s), graph.Vertex(u))
			if gd != wd || gh != wh || old.Query(graph.Vertex(s), graph.Vertex(u)) != wd {
				t.Fatalf("(%d,%d): version 1 file answers (%d,%d), the built index (%d,%d)", s, u, gd, gh, wd, wh)
			}
		}
	}
	// Reading it as a stream finalizes nothing either, and rewriting that
	// through the logical formats lands on the version 2 bytes.
	streamed, err := ReadAny(bytes.NewReader(pidmV1Bytes(x)))
	if err != nil {
		t.Fatalf("ReadAny: %v", err)
	}
	var pidx bytes.Buffer
	if err := streamed.Write(&pidx); err != nil {
		t.Fatal(err)
	}
	reheaded, err := ReadAny(&pidx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pidmBytes(t, reheaded), pidmBytes(t, x)) {
		t.Fatal("version 1 -> PIDX -> PIDM differs from the version 2 file of the same labels")
	}
}
