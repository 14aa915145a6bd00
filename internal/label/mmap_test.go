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
	"slices"
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

// Where the header keeps count i (n, total, tail, K, K2, mid, width, hub
// width) and the offset and CRC of section sec.
func countAt(i int) int { return 8 + 8*i }
func offAt(sec int) int { return 72 + 8*sec }
func crcAt(sec int) int { return 144 + 4*sec }

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
	if h.k != 2 || h.k2 != 2 || h.tail == 0 || h.total != 106 || h.width != 1 || h.hubBytes != 2 {
		t.Fatalf("fixture has K=%d K2=%d tail=%d total=%d width=%d hub width=%d; the cases below assume 2, 2, some, 106, 1 and 2",
			h.k, h.k2, h.tail, h.total, h.width, h.hubBytes)
	}
	for _, tc := range []struct {
		name    string
		mutate  func(d []byte)
		wantErr string
		verify  bool // Verify rejects it too, not only the stream reader
	}{
		{"tail entry names a head hub", func(d []byte) {
			binary.LittleEndian.PutUint16(d[h.lo[secHubs]:], 1)
		}, "hub 1 is a head column", true},
		{"tail entry names a mid hub", func(d []byte) {
			binary.LittleEndian.PutUint16(d[h.lo[secHubs]:], 3)
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
			binary.LittleEndian.PutUint16(d[h.lo[secHubs]+2:], 40)
		}, "entry 1: hub 40 out of range", false},
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
		{"entry count overflow", putCount(2, 1<<32), "entry count"},
		{"mid count overflows an offset", putCount(5, 1<<32), "entry count"},
		{"hub width that is none", putCount(7, 3), "3-byte hub ids"},
		{"2-byte hub ids above 65 536 vertices", putCount(0, 1<<16+1), "2-byte hub ids for 65537 vertices"},
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
			binary.LittleEndian.PutUint32(d[h.lo[secOff]:], 1)
			return d
		}, "corrupt offsets"},
		{"offsets not monotone", func(d []byte) []byte {
			// off[1] jumps past off[2]; off[0] and off[n] stay valid.
			binary.LittleEndian.PutUint32(d[h.lo[secOff]+4:], 1<<30)
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
			binary.LittleEndian.PutUint32(d[h.lo[secMidOff]+4:], 1<<30)
			return d
		}, "mid offsets not monotone"},
		{"mid offsets end short of the distances", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[h.lo[secMidOff]+4*40:], uint32(h.mid)-1)
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

// retiredFiles is one empty index in each format PIDM version 5
// replaced, as its writer laid it out — magic, version, zero counts and
// offsets, and no checksum to speak of — and what the error says it is.
// The first four are shorter than a PIDM header. (testdata's
// seed-pidm-v4 is a whole version 4 file its writer wrote.)
var retiredFiles = []struct {
	what string
	data []byte
}{
	{"a PIDX (fixed-width) index", retiredFile("PIDX", 1, 32)},
	{"a PIDC (compact) index", retiredFile("PIDC", 1, 20)},
	{"a PIDM version 1 index", retiredFile(mmapMagic, 1, 72)},
	{"a PIDM version 2 index", retiredFile(mmapMagic, 2, 136)},
	{"a PIDM version 3 index", retiredFile(mmapMagic, 3, 200)},
	{"a PIDM version 4 index", retiredFile(mmapMagic, 4, 192)},
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

// TestHubWidthBoundary: at n = 65 536 the tail hub ids are 2 bytes and
// hub 65 535 round-trips; at 65 537 they are 4 bytes and hub 65 536 does.
// Each index goes through its heap image, WriteLabels to a file, Open +
// Verify and the stream reader, and every query shape over each answers
// as Flat does over the same labels.
func TestHubWidthBoundary(t *testing.T) {
	for _, tc := range []struct{ n, hubBytes int }{{1 << 16, 2}, {1<<16 + 1, 4}} {
		r := rand.New(rand.NewSource(int64(tc.n)))
		top := graph.Vertex(tc.n - 1)
		// Sparse lists: no hub is in a 32nd of the labels, so every entry
		// is a tail entry, and each labelled vertex holds the top hub.
		lists := make([][]Entry, tc.n)
		labelled := []graph.Vertex{0, 1, 2, 77, 40_000, top - 1, top}
		for _, v := range labelled {
			lists[v] = append(lists[v], Entry{Hub: v, D: 0}, Entry{Hub: top, D: graph.Dist(1 + r.Intn(90))})
			for j := 0; j < 6; j++ {
				lists[v] = append(lists[v], Entry{Hub: graph.Vertex(r.Intn(tc.n)), D: graph.Dist(1 + r.Intn(90))})
			}
		}
		heap := NewIndexFromLists(lists)
		path := filepath.Join(t.TempDir(), "x.midx")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = WriteLabels(f, tc.n, func(v int) []Entry { return lists[v] })
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		opened, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer opened.Close()
		if err := opened.Verify(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := readPIDMStream(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		flat := heap.Flat()
		if !bytes.Equal(data, pidmBytes(t, heap)) || flat.HubBytes() != 4 {
			t.Fatalf("n=%d: the file is not the heap image, or Flat has %d-byte hubs", tc.n, flat.HubBytes())
		}
		var pairs [][2]graph.Vertex
		for _, s := range labelled {
			for _, u := range labelled {
				pairs = append(pairs, [2]graph.Vertex{s, u})
			}
		}
		wantBatch := flat.QueryBatch(pairs, 1)
		for name, x := range map[string]*Index{"heap": heap, "mapped": opened, "streamed": streamed} {
			if x.HubBytes() != tc.hubBytes || x.k != 0 || x.k2 != 0 {
				t.Fatalf("n=%d %s: %d-byte hubs, K=%d K2=%d; want %d and tails alone", tc.n, name, x.HubBytes(), x.k, x.k2, tc.hubBytes)
			}
			if hubs, _ := x.Label(top-1, nil, nil); !slices.Contains(hubs, top) {
				t.Fatalf("n=%d %s: L(%d) = %v lost hub %d", tc.n, name, top-1, hubs, top)
			}
			for i, p := range pairs {
				s, u := p[0], p[1]
				if got, want := x.Query(s, u), flat.Query(s, u); got != want {
					t.Fatalf("n=%d %s: Query(%d,%d) = %d, flat %d", tc.n, name, s, u, got, want)
				}
				gd, gh := x.QueryWithHub(s, u)
				if wd, wh := flat.QueryWithHub(s, u); gd != wd || gh != wh {
					t.Fatalf("n=%d %s: QueryWithHub(%d,%d) = %d via %d, flat %d via %d", tc.n, name, s, u, gd, gh, wd, wh)
				}
				hubs, dists := flat.Label(u, nil, nil)
				gd, gh = x.MergeRun(s, hubs, dists)
				if wd, wh := flat.MergeRun(s, hubs, dists); gd != wd || gh != wh {
					t.Fatalf("n=%d %s: MergeRun(%d, L(%d)) = %d via %d, flat %d via %d", tc.n, name, s, u, gd, gh, wd, wh)
				}
				if got := x.QueryBatch(pairs[i:i+1], 1)[0]; got != wantBatch[i] {
					t.Fatalf("n=%d %s: QueryBatch(%d,%d) = %d, flat %d", tc.n, name, s, u, got, wantBatch[i])
				}
			}
			if !slices.Equal(x.QueryBatch(pairs, 2), wantBatch) || !x.Equal(flat) {
				t.Fatalf("n=%d %s: the batch or the labels differ from Flat's", tc.n, name)
			}
		}
	}
}

// TestForgedEntryCountRefusedSmall: a version 5 header that claims 2³²
// tail or mid entries, checksummed as a writer would, is refused by
// parsePIDM before any section is sized, and by Open and the stream
// reader — without an allocation of the size it claims.
func TestForgedEntryCountRefusedSmall(t *testing.T) {
	for _, count := range []int{2, 5} { // tail, mid
		data := pidmBytes(t, mmapTestIndex())
		binary.LittleEndian.PutUint64(data[countAt(count):], 1<<32)
		fixHeaderCRC(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := parsePIDM(data)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "entry count overflows a 4-byte offset") {
			t.Fatalf("count %d at 2^32: parsePIDM: %v, want it refused", count, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<12 {
			t.Fatalf("count %d at 2^32: parsePIDM allocated %d bytes refusing it", count, grew)
		}
		if x, err := Open(writeTemp(t, data)); x != nil || err == nil {
			t.Fatalf("count %d at 2^32: Open = %v, %v; want it refused", count, x, err)
		}
		if x, err := readPIDMStream(bytes.NewReader(data)); x != nil || err == nil {
			t.Fatalf("count %d at 2^32: readPIDMStream = %v, %v; want it refused", count, x, err)
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
	hubs, head, mids, dists := x.a.(wordArrays).words()
	h := Header{n: x.n, k: x.k, k2: x.k2, width: x.width, hubBytes: x.hubBytes, mid: int64(len(mids)), tail: int64(len(hubs))}
	counts := []int64{int64(h.n), x.NumEntries(), h.tail, int64(h.k), int64(h.k2), h.mid, int64(h.width), int64(h.hubBytes)}
	out := make([]byte, h.layout())
	copy(out[0:4], mmapMagic)
	binary.LittleEndian.PutUint32(out[4:8], 5)
	for i, c := range counts {
		binary.LittleEndian.PutUint64(out[countAt(i):], uint64(c))
	}
	put := func(sec, i, width int, v uint64) {
		switch at := out[h.lo[sec]+uint64(i*width):]; width {
		case 1:
			at[0] = uint8(v)
		case 2:
			binary.LittleEndian.PutUint16(at, uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(at, uint32(v))
		default:
			binary.LittleEndian.PutUint64(at, v)
		}
	}
	for i, o := range x.off {
		put(secOff, i, 4, uint64(o))
	}
	for i, hub := range x.headHubs {
		put(secHeadHubs, i, 4, uint64(hub))
	}
	for i, d := range head {
		put(secHead, i, h.width, uint64(d))
	}
	for i, hub := range x.midHubs {
		put(secMidHubs, i, 4, uint64(hub))
	}
	for i, w := range x.midBits {
		put(secMidBits, i, 8, w)
	}
	for i, o := range x.midOff {
		put(secMidOff, i, 4, uint64(o))
	}
	for i, d := range mids {
		put(secMidDists, i, h.width, uint64(d))
	}
	for i, hub := range hubs {
		put(secHubs, i, h.hubBytes, uint64(hub))
	}
	for i, d := range dists {
		put(secDists, i, h.width, uint64(d))
	}
	for sec := range h.lo {
		binary.LittleEndian.PutUint64(out[offAt(sec):], h.lo[sec])
		binary.LittleEndian.PutUint32(out[crcAt(sec):], crc32.ChecksumIEEE(out[h.lo[sec]:h.lo[sec]+h.size[sec]]))
	}
	binary.LittleEndian.PutUint32(out[188:], crc32.ChecksumIEEE(out[:188]))
	return out
}

// wordArrays is the arrays of an index at any widths, as words.
type wordArrays interface {
	words() (hubs, head, mids, dists []uint32)
}

func (a *arrays[H, D]) words() (hubs, head, mids, dists []uint32) {
	return toWords(a.hubs), toWords(a.head), toWords(a.midDists), toWords(a.dists)
}

func toWords[T word](in []T) []uint32 {
	out := make([]uint32, len(in))
	for i, v := range in {
		out[i] = uint32(v)
	}
	return out
}

// TestWriteMmapBytesUnchanged pins the PIDM writer's output: equal to
// the wordwise reference on indexes whose sections are empty, shorter
// than one encoding block and several blocks long, with all three tiers,
// with a head alone and with neither, at every distance width; for the
// long ones, equal to the SHA-256 recorded when the format became
// version 5.
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
		{"big fixture", pidmBytes(t, big), "a3f3f810351287cc6084b436bce64002a5061d3291528550c50417c542110688"},
		{"tiered fixture", pidmBytes(t, tiered), "23b80faefd10facc84280cb185d86f882dc0a25807d229c5943156ebf4f14084"},
		{"tiered fixture at 1 byte", pidmBytes(t, narrowTieredIndex(rand.New(rand.NewSource(5)), 3000, 127)), "cd89fd8acfdfde94f64e981f22832e11c6d40d50457897b394194ef1cba27924"},
		{"tiered fixture at 2 bytes", pidmBytes(t, narrowTieredIndex(rand.New(rand.NewSource(5)), 3000, 32767)), "c361f5aeef86fb96b113cc03c93ef94cab63508ce77078fa93acc2a3b3d0347e"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(pin.data)); got != pin.want {
			t.Errorf("%s hashes to %s, want %s", pin.name, got, pin.want)
		}
	}
}
