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
	"runtime"
	"strings"
	"testing"

	"parapll/internal/graph"
)

// mmapTestIndex builds a small index with all three tiers and a mix of
// list lengths, including an empty list, through the public finalizer:
// of its 40 vertices' labels hubs 0 and 1 are in more than half (head
// columns), hubs 2 and 3 in more than a 32nd (mid columns; more than one
// label, that is), and every other hub in one label, its own, which
// leaves it in the tails. Vertex 0 has one entry in each tier's first
// slot: head column 0, mid column 0, tail entry 0.
func mmapTestIndex() *Index {
	lists := make([][]Entry, 40)
	for v := range lists {
		if v == 7 {
			continue // isolated vertex
		}
		lists[v] = append(lists[v], Entry{Hub: 0, D: graph.Dist(3 * v)})
		if v%9 != 8 {
			lists[v] = append(lists[v], Entry{Hub: 1, D: graph.Dist(v + 2)})
		}
		if v%3 == 0 {
			lists[v] = append(lists[v], Entry{Hub: 2, D: graph.Dist(7 + v)})
		}
		if v%5 == 3 {
			lists[v] = append(lists[v], Entry{Hub: 3, D: graph.Dist(9 + v/2)})
		}
		if v%4 == 0 {
			lists[v] = append(lists[v], Entry{Hub: graph.Vertex(4 + v/2), D: graph.Dist(v)})
		}
	}
	return NewIndexFromLists(lists)
}

// randomIndex builds an index over n vertices, each with up to perVertex
// entries of random hubs at random distances below 100 000.
func randomIndex(seed int64, n, perVertex int) *Index {
	r := rand.New(rand.NewSource(seed))
	s := NewStore(n)
	for v := 0; v < n; v++ {
		k := r.Intn(perVertex + 1)
		for j := 0; j < k; j++ {
			s.Append(graph.Vertex(v), graph.Vertex(r.Intn(n)), graph.Dist(r.Intn(100000)))
		}
	}
	return NewIndex(s)
}

// Where the header keeps count i (n, total, tail, K, K2, mid, width) and
// the offset and CRC of section sec.
func countAt(i int) int { return 8 + 8*i }
func offAt(sec int) int { return 64 + 8*sec }
func crcAt(sec int) int { return 136 + 4*sec }

// pidmBytes serializes x in the PIDM format.
func pidmBytes(t testing.TB, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := x.WriteMmap(&buf); err != nil {
		t.Fatalf("WriteMmap: %v", err)
	}
	return buf.Bytes()
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.idx")
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
	if x.Format() != FormatMemory || y.Format() != FormatMmap {
		t.Fatalf("Format() = %q built, %q opened; want %q, %q", x.Format(), y.Format(), FormatMemory, FormatMmap)
	}
	if runtime.GOOS != "windows" && !y.Mapped() { // unix maps; the fallback reads into the heap
		t.Fatal("Open did not map the file")
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
	binary.LittleEndian.PutUint32(data[mmapHeader-4:], crc32.ChecksumIEEE(data[:mmapHeader-4]))
}

// resealPIDM recomputes every checksum of a PIDM file after a
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
		binary.LittleEndian.PutUint32(data[crcAt(i):], crc32.ChecksumIEEE(data[h.lo[i]:h.lo[i]+h.size[i]]))
	}
	fixHeaderCRC(data)
}

// TestVerifyChecksEntriesAgainstHead: a file whose container and
// checksums are in order but whose entries contradict its head or its
// middle tier opens — Open reads no entry — and is caught by Verify and
// by the stream reader.
func TestVerifyChecksEntriesAgainstHead(t *testing.T) {
	base := pidmBytes(t, mmapTestIndex()) // head columns 0 and 1, mid columns 2 and 3; tail entry 0 is (v0: hub 4)
	h, err := parsePIDM(base)
	if err != nil {
		t.Fatal(err)
	}
	if h.k != 2 || h.k2 != 2 || h.tail == 0 || h.total != 106 || h.width != 1 {
		t.Fatalf("fixture has K=%d K2=%d tail=%d total=%d width=%d; the cases below assume 2, 2, some, 106 and 1", h.k, h.k2, h.tail, h.total, h.width)
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
		{"tail entry names a mid hub", func(d []byte) {
			binary.LittleEndian.PutUint32(d[h.lo[secHubs]:], 3)
		}, "hub 3 is a mid column", true},
		{"one entry more than the sections hold", func(d []byte) {
			binary.LittleEndian.PutUint64(d[countAt(1):], uint64(h.total)+1)
		}, "header counts 107 entries, sections hold 106", true},
		{"head slot emptied", func(d []byte) {
			d[h.lo[secHead]] = 0xFF
		}, "header counts 106 entries, sections hold 105", true},
		{"bitmap bit cleared", func(d []byte) {
			d[h.lo[secMidBits]] &^= 1 // vertex 0 no longer has hub 2; its packed run still has the distance
		}, "vertex 0: 0 bits set in its bitmap row, 1 packed distances", true},
		{"bitmap bit set", func(d []byte) {
			d[h.lo[secMidBits]+8] |= 2 // vertex 1 gains hub 3 and no distance to it
		}, "vertex 1: 1 bits set in its bitmap row, 0 packed distances", true},
		{"bitmap bit moved past the last column", func(d []byte) {
			d[h.lo[secMidBits]] ^= 1 | 1<<2 // as many bits as distances, one of them column 2 of 2
		}, "vertex 0: bitmap bit set at or above column 2", true},
		{"infinite tail distance", func(d []byte) {
			d[h.lo[secDists]] = 0xFF
		}, "entry 0: distance overflow", false},
		{"infinite mid distance", func(d []byte) {
			d[h.lo[secMidDists]+1] = 0xFF
		}, "mid entry 1: distance overflow", false},
		// 2·128 reaches the 1-byte sentinel: a sum of two such distances
		// would read as an empty slot.
		{"tail distance the width does not admit", func(d []byte) {
			d[h.lo[secDists]+1] = 128
		}, "entry 1: distance overflow", false},
		{"mid distance the width does not admit", func(d []byte) {
			d[h.lo[secMidDists]] = 128
		}, "mid entry 0: distance overflow", false},
		{"head distance the width does not admit", func(d []byte) {
			d[h.lo[secHead]+1] = 128
		}, "head slot 1: distance overflow", false},
		{"tail hub that is no vertex", func(d []byte) {
			binary.LittleEndian.PutUint32(d[h.lo[secHubs]+4:], 40)
		}, "hub 40 out of range", false},
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
				t.Fatalf("Verify: %v, want nil (the checksums agree and the tiers are consistent)", err)
			}
			if _, err := readPIDMStream(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("readPIDMStream: %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// TestOpenDecodesWhereItCannotAlias: a container whose base address is
// not 8-byte aligned (or a big-endian host) cannot be aliased in place;
// the sections — the bitmap's 64-bit words and the 1- and 2-byte
// distances among them — are decoded into fresh slices instead, and the
// index is the same one.
func TestOpenDecodesWhereItCannotAlias(t *testing.T) {
	wide := tieredTestIndex(rand.New(rand.NewSource(43)), 400)
	if k2, _ := wide.Mid(); k2 <= 64 {
		t.Fatalf("fixture has %d mid columns: a bitmap row of one word cannot show a word decoded out of place", k2)
	}
	files := map[string][]byte{
		"all tiers": pidmBytes(t, wide), "head alone": pidmBytes(t, wide.HeadOnly()), "tails alone": pidmBytes(t, wide.Flat()),
	}
	for _, dmax := range []graph.Dist{127, 32767} {
		files[fmt.Sprintf("dmax %d", dmax)] = pidmBytes(t, narrowTieredIndex(rand.New(rand.NewSource(43)), 400, dmax))
	}
	for name, data := range files {
		want, err := openMapping(&mapping{data: bytes.Clone(data)})
		if err != nil {
			t.Fatalf("%s: openMapping: %v", name, err)
		}
		shifted := append(make([]byte, 1, len(data)+1), data...)[1:] // base % 8 == 1
		x, err := openMapping(&mapping{data: shifted})
		if err != nil {
			t.Fatalf("%s: openMapping, shifted: %v", name, err)
		}
		copy(shifted, make([]byte, len(shifted))) // zero the container: an alias would see it
		if !x.Equal(want) || x.DistBytes() != want.DistBytes() {
			t.Fatalf("%s: decoded index differs from the one written, or still aliases its container", name)
		}
	}
}

func TestMmapCorruptFrames(t *testing.T) {
	base := pidmBytes(t, mmapTestIndex())
	h, err := parsePIDM(base)
	if err != nil {
		t.Fatal(err)
	}
	if h.k != 2 || h.k2 != 2 {
		t.Fatalf("fixture has K=%d K2=%d; the column cases below assume head hubs 0 and 1, mid hubs 2 and 3", h.k, h.k2)
	}
	putCount := func(i int, v uint64) func(d []byte) []byte {
		return func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[countAt(i):], v)
			fixHeaderCRC(d)
			return d
		}
	}
	cases := []struct {
		name    string
		mutate  func(data []byte) []byte
		wantErr string
	}{
		{"truncated header", func(d []byte) []byte { return d[:32] }, "truncated header"},
		{"header cut inside version 3's", func(d []byte) []byte { return d[:128] }, "truncated header"},
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }, "bad magic"},
		{"bad version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[4:8], 99)
			fixHeaderCRC(d)
			return d
		}, "unsupported version"},
		{"header checksum", func(d []byte) []byte { d[9] ^= 0xff; return d }, "header checksum"},
		{"vertex count overflow", putCount(0, math.MaxInt32+1), "vertex count"},
		{"distance width that is none", putCount(6, 3), "distance width 3"},
		{"distance width of zero", putCount(6, 0), "distance width 0"},
		{"distance width the sections were not written at", putCount(6, 2), "section offset inconsistent|truncated section"},
		{"entry count overflow", putCount(2, uint64(maxMmapEntries)+1), "entry count"},
		{"misaligned section offset", func(d []byte) []byte {
			v := binary.LittleEndian.Uint64(d[offAt(secHubs):])
			binary.LittleEndian.PutUint64(d[offAt(secHubs):], v+4)
			fixHeaderCRC(d)
			return d
		}, "misaligned"},
		{"inconsistent section offset", func(d []byte) []byte {
			v := binary.LittleEndian.Uint64(d[offAt(secHubs):])
			binary.LittleEndian.PutUint64(d[offAt(secHubs):], v+mmapAlign)
			fixHeaderCRC(d)
			return d
		}, "inconsistent"},
		{"truncated section", func(d []byte) []byte { return d[:len(d)-8] }, "truncated section"},
		{"offset zero broken", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[h.lo[secOff]:], 1)
			return d
		}, "corrupt offsets"},
		{"offsets not monotone", func(d []byte) []byte {
			// off[1] jumps past off[2]; off[0] and off[n] stay valid.
			binary.LittleEndian.PutUint64(d[h.lo[secOff]+8:], 1<<40)
			return d
		}, "offsets not monotone"},
		{"more head columns than vertices", putCount(3, 41), "head columns"},
		{"head slot count overflow", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[countAt(0):], math.MaxInt32)
			return putCount(3, math.MaxInt32)(d)
		}, "head columns"},
		{"more columns than vertices", putCount(4, 39), "mid columns"},
		{"more mid entries than bits", putCount(5, 81), "mid columns"},
		{"bitmap word count overflow", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[countAt(0):], math.MaxInt32)
			return putCount(4, math.MaxInt32-2)(d)
		}, "mid columns"},
		{"entries the sections cannot hold", putCount(1, 200), "entries cannot be"},
		{"fewer entries than the tail", putCount(1, 31), "entries cannot be"},
		{"head column out of range", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[h.lo[secHeadHubs]:], 40)
			return d
		}, "head column 0"},
		{"head columns out of order", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[h.lo[secHeadHubs]:], 1)
			binary.LittleEndian.PutUint32(d[h.lo[secHeadHubs]+4:], 0)
			return d
		}, "head column 1"},
		{"mid column out of range", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[h.lo[secMidHubs]+4:], 40)
			return d
		}, "mid column 1"},
		{"mid column repeated", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[h.lo[secMidHubs]+4:], 2)
			return d
		}, "mid column 1"},
		{"column id in head and mid", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[h.lo[secMidHubs]:], 1)
			return d
		}, "hub 1 is head column 1 and mid column 0"},
		{"mid offsets not monotone", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[h.lo[secMidOff]+8:], 1<<40)
			return d
		}, "mid offsets not monotone"},
		{"mid offsets end short of the distances", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[h.lo[secMidOff]+8*40:], uint64(h.mid)-1)
			return d
		}, "corrupt mid offsets"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(bytes.Clone(base))
			if _, err := Open(writeTemp(t, data)); err == nil {
				t.Fatal("Open accepted corrupt file")
			} else if !containsAny(err.Error(), strings.Split(tc.wantErr, "|")) {
				t.Fatalf("Open error %q does not mention %q", err, tc.wantErr)
			}
			if _, err := readPIDMStream(bytes.NewReader(data)); err == nil {
				t.Fatal("readPIDMStream accepted corrupt file")
			}
		})
	}
}

// TestFlippedBitmapBitIsContained: a bit flipped in a bitmap row of a
// file Open accepted (it reads no row) shifts the ranks behind it. Every
// query shape over the damaged vertex then answers something or panics
// on a bounds-checked index — the recoverable kind a server turns into a
// 500 — and pairs clear of it answer as before.
func TestFlippedBitmapBitIsContained(t *testing.T) {
	good := tieredTestIndex(rand.New(rand.NewSource(47)), 400)
	const victim = 11
	data := pidmBytes(t, good)
	h, err := parsePIDM(data)
	if err != nil {
		t.Fatal(err)
	}
	w := uint64(midWords(h.k2))
	if h.k2%64 == 0 {
		t.Fatalf("fixture has %d mid columns: no spare bit in a row's last word", h.k2)
	}
	for _, bit := range []uint64{0, 64*w - 1} { // the column every other is ranked behind; a bit that is no column
		damaged := bytes.Clone(data)
		damaged[h.lo[secMidBits]+victim*8*w+bit/8] ^= 1 << (bit % 8)
		x, err := Open(writeTemp(t, damaged))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := x.Verify(); err == nil || !strings.Contains(err.Error(), "midBits section checksum") {
			t.Fatalf("Verify: %v, want the midBits section's checksum named", err)
		}
		contained := func(what string, f func()) {
			defer func() {
				if p := recover(); p != nil {
					if err, ok := p.(error); !ok || !strings.Contains(err.Error(), "out of range") {
						t.Fatalf("bit %d: %s panicked with %v, want a bounds-check runtime error", bit, what, p)
					}
				}
			}()
			f()
		}
		for u := 0; u < 400; u++ {
			p := [2]graph.Vertex{victim, graph.Vertex(u)}
			contained("Query", func() { x.Query(p[0], p[1]) })
			contained("QueryWithHub", func() { x.QueryWithHub(p[1], p[0]) })
			contained("QueryExplain", func() { x.QueryExplain(p[0], p[1]) })
			contained("QueryBatch", func() { x.QueryBatch([][2]graph.Vertex{p, {p[1], p[0]}}, 1) })
			contained("Label", func() { x.Label(victim, nil, nil) })
			if s, u := graph.Vertex(u), graph.Vertex((u*7+1)%400); s != victim && u != victim && x.Query(s, u) != good.Query(s, u) {
				t.Fatalf("bit %d: (%d,%d), clear of the damaged row, answers %d, want %d", bit, s, u, x.Query(s, u), good.Query(s, u))
			}
		}
		x.Close()
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
	if _, err := readPIDMStream(bytes.NewReader(data)); err == nil {
		t.Fatal("readPIDMStream missed flipped section byte")
	}
}

// retiredFiles is one empty index in each format PIDM version 4
// replaced, as its writer laid it out — magic, version, zero counts and
// offsets, and no checksum to speak of — and what the error says it is.
// All but the last are shorter than a PIDM header.
var retiredFiles = []struct {
	what string
	data []byte
}{
	{"a PIDX (fixed-width) index", retiredFile("PIDX", 1, 32)},
	{"a PIDC (compact) index", retiredFile("PIDC", 1, 20)},
	{"a PIDM version 1 index", retiredFile(mmapMagic, 1, 72)},
	{"a PIDM version 2 index", retiredFile(mmapMagic, 2, 136)},
	{"a PIDM version 3 index", retiredFile(mmapMagic, 3, 200)},
}

func retiredFile(magic string, version uint32, size int) []byte {
	data := make([]byte, size)
	copy(data, magic)
	binary.LittleEndian.PutUint32(data[4:], version)
	return data
}

// TestOpenAnyZeroCopyOnlyForPIDM: Open goes by a file's content, not its
// name. A PIDM file under any extension opens as a mapping; a file of a
// retired heap format under a PIDM name is refused, not loaded.
func TestOpenAnyZeroCopyOnlyForPIDM(t *testing.T) {
	x := mmapTestIndex()
	dir := t.TempDir()
	path := filepath.Join(dir, "pidm.whatever")
	if err := os.WriteFile(path, pidmBytes(t, x), 0o644); err != nil {
		t.Fatal(err)
	}
	y, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !x.Equal(y) {
		t.Fatal("Open changed index")
	}
	if runtime.GOOS != "windows" && !y.Mapped() { // unix maps; the fallback reads into the heap
		t.Fatal("PIDM file did not open as a mapping")
	}
	y.Close()
	for _, tc := range retiredFiles {
		path := filepath.Join(dir, "retired.pidm")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if y, err := Open(path); y != nil || err == nil {
			t.Fatalf("%s under a PIDM name: Open = %v, %v; want it refused", tc.what, y, err)
		}
	}
}

// TestOpenNamesRetiredFormats: Open and the stream reader refuse a file
// of a retired format with an error that says what it is and how to get
// a file they read.
func TestOpenNamesRetiredFormats(t *testing.T) {
	for _, tc := range retiredFiles {
		stream, err := readPIDMStream(bytes.NewReader(tc.data))
		if stream != nil || err == nil || !strings.Contains(err.Error(), tc.what) {
			t.Fatalf("%s: readPIDMStream: %v, want it named", tc.what, err)
		}
		x, err := Open(writeTemp(t, tc.data))
		if x != nil || err == nil || !strings.Contains(err.Error(), tc.what+", a format this build no longer reads: rebuild it with parapll-index") {
			t.Fatalf("%s: Open: %v, want it named and the way out", tc.what, err)
		}
	}
}

// TestCrossFormatEquivalence: random indexes answer identically built in
// process (FormatMemory) and read back from their PIDM bytes (FormatMmap)
// by either reader, stream and mapped.
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
		data := pidmBytes(t, x)
		streamed, err := readPIDMStream(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mapped, err := Open(writeTemp(t, data))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		defer mapped.Close()
		ys := []*Index{streamed, mapped}
		if x.Format() != FormatMemory || streamed.Format() != FormatMmap || mapped.Format() != FormatMmap {
			t.Fatalf("trial %d: formats %q built, %q streamed, %q mapped", trial, x.Format(), streamed.Format(), mapped.Format())
		}
		for probe := 0; probe < 50; probe++ {
			s := graph.Vertex(r.Intn(n))
			u := graph.Vertex(r.Intn(n))
			wd, wh := x.QueryWithHub(s, u)
			for i, y := range ys {
				gd, gh := y.QueryWithHub(s, u)
				if gd != wd || gh != wh {
					t.Fatalf("trial %d, %s: QueryWithHub(%d,%d) = (%d,%d), want (%d,%d)",
						trial, [...]string{"streamed", "mapped"}[i], s, u, gd, gh, wd, wh)
				}
			}
		}
	}
}

// BenchmarkOpenMmap times Open on an index with tails alone and on one
// with the benchmark's p2p vertex count and all three tiers, whose second
// offset array Open also walks.
func BenchmarkOpenMmap(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	lists := make([][]Entry, 2000)
	for v := range lists {
		for j := 0; j < 20; j++ {
			lists[v] = append(lists[v], Entry{Hub: graph.Vertex(r.Intn(2000)), D: graph.Dist(r.Intn(1000))})
		}
	}
	for name, x := range map[string]*Index{"tails": NewIndexFromLists(lists), "tiered": narrowTieredIndex(r, 3807, 25)} {
		b.Run(name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "x.midx")
			if err := os.WriteFile(path, pidmBytes(b, x), 0o644); err != nil {
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
		})
	}
}

// handBuiltPIDM lays the PIDM file of x out in memory one word at a
// time, straight from the format comment: the reference the block
// encoder in WriteMmap must match byte for byte.
func handBuiltPIDM(x *Index) []byte {
	var head, mids, dists []uint32
	switch x.width {
	case 1:
		head, mids, dists = distWords(&x.a8)
	case 2:
		head, mids, dists = distWords(&x.a16)
	default:
		head, mids, dists = distWords(&x.a32)
	}
	n, k, k2, width := x.NumVertices(), len(x.headHubs), len(x.midHubs), x.width
	mid, tail := int64(len(mids)), int64(len(x.hubs))
	counts := []int64{int64(n), x.NumEntries(), tail, int64(k), int64(k2), mid, int64(width)}
	lo, size, fileSize := mmapLayout(n, k, k2, mid, tail, width)
	out := make([]byte, fileSize)
	copy(out[0:4], mmapMagic)
	binary.LittleEndian.PutUint32(out[4:8], 4)
	for i, c := range counts {
		binary.LittleEndian.PutUint64(out[countAt(i):], uint64(c))
	}
	put64 := func(sec, i int, v uint64) { binary.LittleEndian.PutUint64(out[lo[sec]+uint64(i)*8:], v) }
	put32 := func(sec, i int, v uint32) { binary.LittleEndian.PutUint32(out[lo[sec]+uint64(i)*4:], v) }
	putDist := func(sec, i int, v uint32) {
		switch at := out[lo[sec]+uint64(i*width):]; width {
		case 1:
			at[0] = uint8(v)
		case 2:
			binary.LittleEndian.PutUint16(at, uint16(v))
		default:
			binary.LittleEndian.PutUint32(at, v)
		}
	}
	for i, o := range x.off {
		put64(secOff, i, uint64(o))
	}
	for i, h := range x.headHubs {
		put32(secHeadHubs, i, uint32(h))
	}
	for i, d := range head {
		putDist(secHead, i, d)
	}
	for i, h := range x.midHubs {
		put32(secMidHubs, i, uint32(h))
	}
	for i, w := range x.midBits {
		put64(secMidBits, i, w)
	}
	for i, o := range x.midOff {
		put64(secMidOff, i, uint64(o))
	}
	for i, d := range mids {
		putDist(secMidDists, i, d)
	}
	for i, h := range x.hubs {
		put32(secHubs, i, uint32(h))
	}
	for i, d := range dists {
		putDist(secDists, i, d)
	}
	for sec := range lo {
		binary.LittleEndian.PutUint64(out[offAt(sec):], lo[sec])
		binary.LittleEndian.PutUint32(out[crcAt(sec):], crc32.ChecksumIEEE(out[lo[sec]:lo[sec]+size[sec]]))
	}
	binary.LittleEndian.PutUint32(out[188:], crc32.ChecksumIEEE(out[:188]))
	return out
}

// distWords returns the three arrays of a as words.
func distWords[D distance](a *arrays[D]) (head, mids, dists []uint32) {
	conv := func(in []D) []uint32 {
		out := make([]uint32, len(in))
		for i, d := range in {
			out[i] = uint32(d)
		}
		return out
	}
	return conv(a.head), conv(a.midDists), conv(a.dists)
}

// TestWriteMmapBytesUnchanged pins the PIDM writer's output: equal to
// the wordwise reference on indexes whose sections are empty, shorter
// than one encoding block and several blocks long, with all three tiers,
// with a head alone and with neither, at every distance width; for the
// long ones, equal to the SHA-256 recorded when the format became
// version 4.
func TestWriteMmapBytesUnchanged(t *testing.T) {
	big := randomIndex(9, 3*pidmBlock/8, 12) // off section spans three blocks, hubs and dists more
	for name, x := range map[string]*Index{
		"empty": NewIndex(NewStore(0)), "no-labels": NewIndex(NewStore(7)), "small": mmapTestIndex(), "big": big,
		"batch-shaped": batchTestIndex(rand.New(rand.NewSource(3)), 3*pidmBlock/8),
		"tiered":       tieredTestIndex(rand.New(rand.NewSource(5)), 3*pidmBlock/8),
		"tiered-1B":    narrowTieredIndex(rand.New(rand.NewSource(5)), 3*pidmBlock/8, 127),
		"tiered-2B":    narrowTieredIndex(rand.New(rand.NewSource(5)), 3*pidmBlock/8, 32767),
		"head alone":   tieredTestIndex(rand.New(rand.NewSource(5)), 3*pidmBlock/8).HeadOnly(),
		"tails alone":  big.Flat(),
	} {
		if got := pidmBytes(t, x); !bytes.Equal(got, handBuiltPIDM(x)) {
			t.Errorf("%s: WriteMmap differs from the wordwise reference", name)
		}
	}
	tiered := tieredTestIndex(rand.New(rand.NewSource(5)), 3000)
	if k, _ := tiered.Head(); k == 0 {
		t.Fatal("the pinned fixture has no head")
	}
	if k2, _ := tiered.Mid(); k2 <= 64 {
		t.Fatalf("the pinned fixture has %d mid columns, want more than a word of them", k2)
	}
	for _, pin := range []struct {
		name string
		data []byte
		want string
	}{
		{"big fixture", pidmBytes(t, big), "7d1d029d2274eb79c4e2fe2bbc96157aa69f42bd5db4b8caa7012416765b9055"},
		{"tiered fixture", pidmBytes(t, tiered), "1576f1d1454109d3f2af21f8246ccead701520c1ba9e5deb15da04d568a5b42f"},
		{"tiered fixture at 1 byte", pidmBytes(t, narrowTieredIndex(rand.New(rand.NewSource(5)), 3000, 127)), "dfaad6c6511820b86a066a75cc16564e84196588bf57a5d09c8731697bb00346"},
		{"tiered fixture at 2 bytes", pidmBytes(t, narrowTieredIndex(rand.New(rand.NewSource(5)), 3000, 32767)), "5a9f90a5e939d302acfc039c55ad11e7fe309267e9012dc824577452c0136dd8"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(pin.data)); got != pin.want {
			t.Errorf("%s hashes to %s, want %s", pin.name, got, pin.want)
		}
	}
}
