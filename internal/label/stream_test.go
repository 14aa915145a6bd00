package label

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"parapll/internal/graph"
)

// refFinalize is finalize as it was before it streamed: the same two
// passes, the second dealing every entry into arrays on the heap. With
// refPIDM it is the reference the streamed image is held to — an index
// laid out array by array and encoded section by section, sharing with
// the dealer only the counting pass's rules.
func refFinalize(n int, list func(v int) []Entry, use tiers) *Index {
	count := make([]int32, n)
	seen := make([]int32, n)
	var total int64
	var dmax graph.Dist
	for v := 0; v < n; v++ {
		mark := int32(v + 1)
		for _, e := range list(v) {
			dmax = max(dmax, e.D)
			if seen[e.Hub] != mark {
				seen[e.Hub] = mark
				count[e.Hub]++
				total++
			}
		}
	}
	idx := &Index{off: make([]uint32, n+1)}
	idx.n, idx.total = n, total
	slot, tail := seen, total
	for h := range slot {
		slot[h] = -1
		switch c := int64(count[h]); {
		case use >= headAndTail && 2*c > int64(n):
			slot[h] = int32(len(idx.headHubs))
			idx.headHubs = append(idx.headHubs, graph.Vertex(h))
			tail -= c
		case use >= allTiers && 32*c > int64(n):
			slot[h] = int32(-2 - len(idx.midHubs))
			idx.midHubs = append(idx.midHubs, graph.Vertex(h))
			tail -= c
			idx.mid += c
		}
	}
	idx.k, idx.k2, idx.tail = len(idx.headHubs), len(idx.midHubs), tail
	if w := midWords(len(idx.midHubs)); w > 0 {
		idx.midBits = make([]uint64, n*w)
		idx.midOff = make([]uint32, n+1)
	}
	wide := use == tailOnly
	switch {
	case wide || uint64(dmax) > maxDist[uint16]():
		idx.width = 4
	case uint64(dmax) > maxDist[uint8]():
		idx.width = 2
	default:
		idx.width = 1
	}
	idx.hubBytes = 4
	if !wide && n <= 65536 {
		idx.hubBytes = 2
	}
	idx.a = layoutFor(idx.hubBytes, idx.width)
	idx.a.(refArrays).refDeal(idx, list, slot)
	return idx
}

// refArrays is the reference finalize's and encoder's access to an
// index's arrays at its widths.
type refArrays interface {
	refDeal(idx *Index, list func(v int) []Entry, slot []int32)
	refEncode(x *Index) []byte
}

func (a *arrays[H, D]) refDeal(idx *Index, list func(v int) []Entry, slot []int32) {
	n, k, w := idx.NumVertices(), len(idx.headHubs), midWords(len(idx.midHubs))
	a.hubs = make([]H, idx.tail)
	a.head = make([]D, n*k)
	a.midDists = make([]D, idx.mid)
	a.dists = make([]D, idx.tail)
	var keys []uint64
	pos, mpos := 0, 0
	for v := 0; v < n; v++ {
		keys = keys[:0]
		for _, e := range list(v) {
			keys = append(keys, pack(e))
		}
		row := a.head[v*k:][:k]
		for c := range row {
			row[c] = ^D(0)
		}
		words := idx.midBits[v*w:][:w]
		for _, k := range sortDedupe(keys) {
			e := unpack(k)
			switch c := slot[e.Hub]; {
			case c >= 0:
				row[c] = D(e.D)
			case c == -1:
				a.hubs[pos], a.dists[pos] = H(e.Hub), D(e.D)
				pos++
			default:
				c = -2 - c
				words[c>>6] |= 1 << uint(c&63)
				a.midDists[mpos] = D(e.D)
				mpos++
			}
		}
		idx.off[v+1] = uint32(pos)
		if w > 0 {
			idx.midOff[v+1] = uint32(mpos)
		}
	}
}

// refPIDM is the per-array encoder WriteMmap was before the image:
// every array of x encoded little-endian a block at a time, twice — once
// into the section checksums, once into the file.
func refPIDM(x *Index) []byte { return x.a.(refArrays).refEncode(x) }

func (a *arrays[H, D]) refEncode(x *Index) []byte {
	n, k, k2 := x.NumVertices(), len(x.headHubs), len(x.midHubs)
	tail := int64(len(a.hubs))
	h := x.Header
	h.layout()
	lo, size := h.lo, h.size
	block := make([]byte, pidmBlock)
	section := [numSections]func(w io.Writer){
		secOff:      func(w io.Writer) { refWriteLE(w, block, x.off) },
		secMidOff:   func(w io.Writer) { refWriteLE(w, block, x.midOff) },
		secHeadHubs: func(w io.Writer) { refWriteLE(w, block, x.headHubs) },
		secMidHubs:  func(w io.Writer) { refWriteLE(w, block, x.midHubs) },
		secHead:     func(w io.Writer) { refWriteLE(w, block, a.head) },
		secMidBits:  func(w io.Writer) { refWriteLE(w, block, x.midBits) },
		secMidDists: func(w io.Writer) { refWriteLE(w, block, a.midDists) },
		secHubs:     func(w io.Writer) { refWriteLE(w, block, a.hubs) },
		secDists:    func(w io.Writer) { refWriteLE(w, block, a.dists) },
	}
	var hdr [mmapHeader]byte
	copy(hdr[0:4], mmapMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], mmapVersion)
	for i, c := range []int64{int64(n), x.total, tail, int64(k), int64(k2), x.mid, int64(x.width), int64(x.hubBytes)} {
		binary.LittleEndian.PutUint64(hdr[hdrCounts+8*i:], uint64(c))
	}
	for i := 0; i < numSections; i++ {
		crc := crc32.NewIEEE()
		section[i](crc)
		binary.LittleEndian.PutUint64(hdr[hdrOffsets+8*i:], lo[i])
		binary.LittleEndian.PutUint32(hdr[hdrCRCs+4*i:], crc.Sum32())
	}
	binary.LittleEndian.PutUint32(hdr[mmapHeader-4:], crc32.ChecksumIEEE(hdr[:mmapHeader-4]))
	var out bytes.Buffer
	out.Write(hdr[:])
	end := uint64(mmapHeader)
	for i := 0; i < numSections; i++ {
		var zero [mmapAlign]byte
		out.Write(zero[:lo[i]-end])
		section[i](&out)
		end = lo[i] + size[i]
	}
	return out.Bytes()
}

func refWriteLE[T word](w io.Writer, block []byte, vals []T) {
	size := int(unsafe.Sizeof(T(0)))
	for len(vals) > 0 {
		k := min(len(vals), len(block)/size)
		for i, v := range vals[:k] {
			switch size {
			case 8:
				binary.LittleEndian.PutUint64(block[8*i:], uint64(v))
			case 4:
				binary.LittleEndian.PutUint32(block[4*i:], uint32(v))
			case 2:
				binary.LittleEndian.PutUint16(block[2*i:], uint16(v))
			default:
				block[i] = byte(v)
			}
		}
		w.Write(block[:size*k])
		vals = vals[k:]
	}
}

// fuzzLists reads label lists from fuzz bytes: data[0] is n, data[1]
// picks a distance scale (x1, x300 or x70 000, so 1-, 2- and 4-byte
// widths), and every three bytes after them are an entry — vertex,
// hub, distance — hub and vertex modulo n, so repeats make duplicate
// hubs.
func fuzzLists(data []byte) [][]Entry {
	if len(data) < 2 {
		return nil
	}
	lists := make([][]Entry, int(data[0]))
	scale := []graph.Dist{1, 1, 300, 70_000}[data[1]&3]
	for data = data[2:]; len(lists) > 0 && len(data) >= 3; data = data[3:] {
		v, hub := int(data[0])%len(lists), graph.Vertex(int(data[1])%len(lists))
		lists[v] = append(lists[v], Entry{Hub: hub, D: graph.Dist(data[2]) * scale})
	}
	return lists
}

// fuzzSeed is the bytes fuzzLists reads lists back from: n, the scale,
// then the entries.
func fuzzSeed(n, scale byte, entries ...[3]byte) []byte {
	out := []byte{n, scale}
	for _, e := range entries {
		out = append(out, e[:]...)
	}
	return out
}

// streamedSeeds are FuzzStreamedPIDM's seeds: n = 0; n = 1; a duplicate
// hub; 64 vertices with neither column tier (K = K2 = 0) and with a head
// column and no mid one, each at every scale; 100 vertices in all three
// tiers at the three widths.
func streamedSeeds() [][]byte {
	seeds := [][]byte{
		{},
		fuzzSeed(1, 0, [3]byte{0, 0, 0}),
		fuzzSeed(3, 0, [3]byte{0, 0, 0}, [3]byte{1, 0, 3}, [3]byte{1, 0, 2}, [3]byte{2, 2, 0}),
	}
	var tails, head [][3]byte
	for v := byte(0); v < 64; v++ {
		tails = append(tails, [3]byte{v, v, 0}, [3]byte{v, v ^ 1, 1 + v%7})
		head = append(head, [3]byte{v, 5, v}, [3]byte{v, v, 0})
	}
	for scale := byte(0); scale < 4; scale++ {
		seeds = append(seeds, fuzzSeed(64, scale, tails...), fuzzSeed(64, scale, head...))
	}
	r := rand.New(rand.NewSource(5))
	var mixed [][3]byte
	for i := 0; i < 600; i++ {
		mixed = append(mixed, [3]byte{byte(r.Intn(100)), byte(r.Intn(9) * r.Intn(12)), byte(r.Intn(256))})
	}
	for scale := byte(1); scale < 4; scale++ {
		seeds = append(seeds, fuzzSeed(100, scale, mixed...))
	}
	return seeds
}

// TestStreamedSeedsCover: the seeds reach every width, an index without
// each column tier and with both, n of 0 and 1, and a duplicate hub.
func TestStreamedSeedsCover(t *testing.T) {
	seen := map[string]bool{}
	for _, data := range streamedSeeds() {
		lists := fuzzLists(data)
		x := NewIndexFromLists(lists)
		seen[fmt.Sprintf("width %d", x.width)] = true
		seen[fmt.Sprintf("n %d", min(x.n, 2))] = true
		seen[fmt.Sprintf("K>0 %v", x.k > 0)] = true
		seen[fmt.Sprintf("K2>0 %v", x.k2 > 0)] = true
		for _, l := range lists {
			if len(SortDedupe(l)) < len(l) {
				seen["duplicate hub"] = true
			}
		}
	}
	for _, want := range []string{"width 1", "width 2", "width 4", "n 0", "n 1", "n 2", "K>0 false", "K>0 true", "K2>0 false", "K2>0 true", "duplicate hub"} {
		if !seen[want] {
			t.Errorf("no seed has %s", want)
		}
	}
}

// FuzzStreamedPIDM holds the streamed image to the two it replaces: the
// file WriteLabels writes must be byte for byte the heap image of
// NewIndexFunc over the same lists and the reference encoder's file of
// the reference finalize, and the strict stream reader must accept it.
func FuzzStreamedPIDM(f *testing.F) {
	for _, data := range streamedSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lists := fuzzLists(data)
		n, list := len(lists), func(v int) []Entry { return lists[v] }
		path := filepath.Join(t.TempDir(), "x.midx")
		file, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		h, err := WriteLabels(file, n, list)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if heap := pidmBytes(t, NewIndexFunc(n, list)); !bytes.Equal(streamed, heap) {
			t.Fatalf("streamed %d bytes differ from the heap image's %d", len(streamed), len(heap))
		}
		if ref := refPIDM(refFinalize(n, list, allTiers)); !bytes.Equal(streamed, ref) {
			t.Fatalf("streamed %d bytes differ from the reference encoder's %d", len(streamed), len(ref))
		}
		x, err := readPIDMStream(bytes.NewReader(streamed))
		if err != nil {
			t.Fatalf("the stream reader refuses the streamed file: %v", err)
		}
		if x.Header != h {
			t.Fatalf("the file's header is %+v, WriteLabels returned %+v", x.Header, h)
		}
	})
}

// memFile is a file in memory: WriteAt past the end grows it, with zeros
// in any hole, as a file does.
type memFile struct{ b []byte }

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if end := int(off) + len(p); end > len(m.b) {
		m.b = append(m.b, make([]byte, end-len(m.b))...)
	}
	return copy(m.b[off:], p), nil
}

var errInjected = errors.New("injected write fault")

// faultyAt passes writes to w until the fail-th (1-based), which fails
// with errInjected or — short — writes one byte less and reports no
// error; calls counts them, blocks those of a whole pidmBlock.
type faultyAt struct {
	w             io.WriterAt
	fail          int
	short         bool
	calls, blocks int
}

func (f *faultyAt) WriteAt(p []byte, off int64) (int, error) {
	f.calls++
	if len(p) == pidmBlock {
		f.blocks++
	}
	if f.calls != f.fail {
		return f.w.WriteAt(p, off)
	}
	if f.short {
		return f.w.WriteAt(p[:len(p)-1], off)
	}
	return 0, errInjected
}

// TestStreamedWriteFaultsSurface fails each of WriteLabels's writes in
// turn — the section blocks, the padding and the header — with an error
// and with a short write: every one must come back as its error.
func TestStreamedWriteFaultsSurface(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	lists := tieredLists(r, 6000, func() graph.Dist { return graph.Dist(r.Intn(200)) })
	n, list := len(lists), func(v int) []Entry { return lists[v] }
	count := &faultyAt{w: &memFile{}}
	if _, err := WriteLabels(count, n, list); err != nil {
		t.Fatal(err)
	}
	if want := pidmBytes(t, NewIndexFunc(n, list)); !bytes.Equal(count.w.(*memFile).b, want) {
		t.Fatal("the counting run wrote other bytes than the heap image")
	}
	if count.blocks == 0 {
		t.Fatalf("none of %d writes was a whole block: no section took more than one", count.calls)
	}
	for _, short := range []bool{false, true} {
		want := errInjected
		if short {
			want = io.ErrShortWrite
		}
		for k := 1; k <= count.calls; k++ {
			_, err := WriteLabels(&faultyAt{w: &memFile{}, fail: k, short: short}, n, list)
			if !errors.Is(err, want) {
				t.Fatalf("short=%v: write %d of %d failed, WriteLabels returned %v", short, k, count.calls, err)
			}
		}
	}
}

// TestStreamedHeaderReports: the header WriteLabels returns reports what
// the index built from the same lists does.
func TestStreamedHeaderReports(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	lists := tieredLists(r, 500, func() graph.Dist { return graph.Dist(r.Intn(90)) })
	x := NewIndexFromLists(lists)
	h, err := WriteLabels(&memFile{}, len(lists), func(v int) []Entry { return lists[v] })
	if err != nil {
		t.Fatal(err)
	}
	hk, hd := h.Head()
	mk, md := h.Mid()
	xk, xd := x.Head()
	xmk, xmd := x.Mid()
	got := fmt.Sprint(h.NumVertices(), h.NumEntries(), h.AvgLabelSize(), hk, hd, mk, md, h.DistBytes(), h.MemoryBytes())
	want := fmt.Sprint(x.NumVertices(), x.NumEntries(), x.AvgLabelSize(), xk, xd, xmk, xmd, x.DistBytes(), x.MemoryBytes())
	if got != want || hk == 0 || mk == 0 {
		t.Fatalf("header reports %s, the index %s", got, want)
	}
}
