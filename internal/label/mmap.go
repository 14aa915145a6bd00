package label

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"unsafe"

	"parapll/internal/graph"
)

// The index file format ("PIDM"), the one every tool writes and reads:
// the nine arrays of Index laid out verbatim, little-endian, each in its
// own 64-byte-aligned section, behind a fixed header — first the four
// that Open reads (the two offset arrays, the two lists of column ids),
// so that what it touches is one prefix of the file, then the five it
// does not. Opening the file is O(1) in the entries: validate the
// header, map the file, and alias the sections in place — no per-entry
// decode, no second copy of the index in memory. The label array IS the
// product artifact; the file IS the serving state.
//
// Version 5 layout (all integers little-endian):
//
//	[0:4)     magic "PIDM"
//	[4:8)     version (5)
//	[8:16)    n       — vertex count
//	[16:24)   total   — label entries: held head slots + set mid bits + tail entries
//	[24:32)   tail    — tail entries
//	[32:40)   K       — head columns
//	[40:48)   K2      — mid (bitmap) columns; W = ceil(K2/64) words a row
//	[48:56)   mid     — mid entries: set bits, packed distances
//	[56:64)   width   — bytes a stored distance: 1, 2 or 4 (see Index); an
//	          empty head slot holds the width's all-ones value
//	[64:72)   hub width — bytes a tail hub id: 2 (uint16, only when
//	          n <= 65 536) or 4 (int32)
//	[72:144)  byte offsets of the nine sections, in file order:
//	          off ((n+1) × uint32), midOff ((n+1) × uint32, empty when K2 = 0),
//	          headHubs (K × int32), midHubs (K2 × int32),
//	          head (n·K × width), midBits (n·W × uint64), midDists (mid × width),
//	          hubs (tail × hub width), dists (tail × width)
//	[144:180) CRC32 (IEEE) of each section, same order
//	[180:188) zero
//	[188:192) CRC32 of header bytes [0:188)
//
// The offsets are 4 bytes, so tail and mid are below 2³²: finalize
// refuses a label set that has more and parsePIDM a header that says so.
//
// Sections follow in that order, each padded to a 64-byte boundary
// (cache-line, and divides the page size, so section starts stay
// aligned for any element type). The file ends exactly at the end of
// the dists section.
//
// Open validates the header checksum and the structural invariants but
// deliberately does NOT re-checksum the sections — that would page in
// the whole file and make open time O(bytes), defeating the point.
// Verify does the full check on demand; the stream reader
// (readPIDMStream) always verifies (it has read every byte anyway).
//
// A file of a format this one replaced is refused by name (retired).

const (
	mmapMagic   = "PIDM"
	mmapVersion = 5
	mmapHeader  = 192 // the header's bytes: the least a PIDM file holds
	mmapAlign   = 64

	// Where the header keeps the eight counts (n, total, tail, K, K2,
	// mid, width, hub width), the nine section offsets and their nine
	// CRCs.
	hdrCounts  = 8
	hdrOffsets = hdrCounts + 8*8
	hdrCRCs    = hdrOffsets + 8*numSections

	// maxMmapEntries bounds the head slot count and the bitmap word
	// count so section arithmetic can never overflow uint64 (and a
	// corrupt header cannot make us map absurd lengths).
	maxMmapEntries = int64(1) << 48
)

// The sections, in file order.
const (
	secOff = iota
	secMidOff
	secHeadHubs
	secMidHubs
	secHead
	secMidBits
	secMidDists
	secHubs
	secDists
	numSections
)

var sectionNames = [numSections]string{"off", "midOff", "headHubs", "midHubs", "head", "midBits", "midDists", "hubs", "dists"}

// hostLittleEndian reports whether this machine stores integers
// little-endian — the precondition for aliasing PIDM sections in place.
// Big-endian hosts fall back to an eager decode of the same bytes.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func alignUp(x uint64) uint64 { return (x + mmapAlign - 1) &^ (mmapAlign - 1) }

// layout sets the byte offset and length of each section from the
// header's counts and widths, and returns the size of the file.
func (h *Header) layout() uint64 {
	n, k, k2, w := uint64(h.n), uint64(h.k), uint64(h.k2), uint64(h.width)
	h.size = [numSections]uint64{
		secOff:      (n + 1) * 4,
		secHeadHubs: k * 4,
		secHead:     n * k * w,
		secMidHubs:  k2 * 4,
		secMidBits:  n * uint64(midWords(h.k2)) * 8,
		secMidDists: uint64(h.mid) * w,
		secHubs:     uint64(h.tail) * uint64(h.hubBytes),
		secDists:    uint64(h.tail) * w,
	}
	if k2 > 0 {
		h.size[secMidOff] = (n + 1) * 4
	}
	end := uint64(mmapHeader)
	for i := range h.lo {
		h.lo[i] = alignUp(end)
		end = h.lo[i] + h.size[i]
	}
	return end
}

// mapping owns the backing bytes of an mmap-opened index: a real
// mapping on unix, a heap buffer on the fallback platforms and the
// stream-read path. close is idempotent.
type mapping struct {
	data   []byte
	mapped bool               // true = a real OS mapping (zero-copy)
	unmap  func([]byte) error // nil for heap-backed data
}

func (m *mapping) close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	if m.unmap != nil {
		return m.unmap(data)
	}
	return nil
}

// pidmBlock is the size of the buffer each of finalize's section
// streams writes through: large enough that the per-block checksum and
// write calls vanish beside the dealing, small enough that the nine stay
// in L2.
const pidmBlock = 64 << 10

// word is what a section is an array of.
type word interface {
	~uint8 | ~uint16 | ~int32 | ~uint32 | ~int64 | ~uint64
}

// WriteMmap writes the index's PIDM image to w in one write: the bytes
// finalize dealt, from the heap for a built index and from the mapping
// for an opened one.
func (x *Index) WriteMmap(w io.Writer) error {
	_, err := w.Write(x.img)
	return err
}

// Header is a PIDM header, parsed or about to be written: what the file
// says of its index — the counts behind NumEntries, AvgLabelSize, Head,
// Mid and DistBytes — and where its sections are. Every Index carries
// the header of its image; WriteLabels returns the one it wrote, so a
// caller that streamed an index to a file can report it in O(1).
type Header struct {
	n, k, k2 int
	width    int   // bytes a stored distance
	hubBytes int   // bytes a tail hub id
	total    int64 // label entries, head slots and mid bits included
	tail     int64 // tail entries
	mid      int64 // mid entries
	lo, size [numSections]uint64
	crc      [numSections]uint32
}

// encode lays the header out as parsePIDM reads it, its checksum last.
func (h *Header) encode() []byte {
	hdr := make([]byte, mmapHeader)
	copy(hdr[0:4], mmapMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], mmapVersion)
	for i, c := range []int64{int64(h.n), h.total, h.tail, int64(h.k), int64(h.k2), h.mid, int64(h.width), int64(h.hubBytes)} {
		binary.LittleEndian.PutUint64(hdr[hdrCounts+8*i:], uint64(c))
	}
	for i := range h.lo {
		binary.LittleEndian.PutUint64(hdr[hdrOffsets+8*i:], h.lo[i])
		binary.LittleEndian.PutUint32(hdr[hdrCRCs+4*i:], h.crc[i])
	}
	binary.LittleEndian.PutUint32(hdr[mmapHeader-4:], crc32.ChecksumIEEE(hdr[:mmapHeader-4]))
	return hdr
}

// parsePIDM validates the container: magic, version, header checksum,
// overflow-safe counts, the two widths, section alignment and exact file
// extent. It does not touch the section payloads.
func parsePIDM(data []byte) (Header, error) {
	var h Header
	if what := retired(data); what != "" {
		return h, fmt.Errorf("label: %s, a format this build no longer reads: rebuild it with parapll-index", what)
	}
	if len(data) < mmapHeader {
		return h, fmt.Errorf("label: pidm: truncated header (%d bytes)", len(data))
	}
	if string(data[0:4]) != mmapMagic {
		return h, fmt.Errorf("label: pidm: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != mmapVersion {
		return h, fmt.Errorf("label: pidm: unsupported version %d", v)
	}
	if got, want := binary.LittleEndian.Uint32(data[mmapHeader-4:mmapHeader]), crc32.ChecksumIEEE(data[0:mmapHeader-4]); got != want {
		return h, fmt.Errorf("label: pidm: header checksum mismatch: file %08x, computed %08x", got, want)
	}
	var counts [8]uint64 // n, total, tail, K, K2, mid, width, hub width
	for i := range counts {
		counts[i] = binary.LittleEndian.Uint64(data[hdrCounts+8*i:])
	}
	n, total, tail, k, k2, mid, width, hubBytes := counts[0], counts[1], counts[2], counts[3], counts[4], counts[5], counts[6], counts[7]
	if width != 1 && width != 2 && width != 4 {
		return h, fmt.Errorf("label: pidm: distance width %d, want 1, 2 or 4", width)
	}
	if n > math.MaxInt32 {
		return h, fmt.Errorf("label: pidm: vertex count %d overflows", n)
	}
	if tail >= 1<<32 || mid >= 1<<32 {
		return h, fmt.Errorf("label: pidm: entry count overflows a 4-byte offset: %d tail and %d mid entries", tail, mid)
	}
	if k > n || n*k > uint64(maxMmapEntries) {
		return h, fmt.Errorf("label: pidm: %d head columns for %d vertices", k, n)
	}
	if k2 > n-k || n*uint64(midWords(int(k2))) > uint64(maxMmapEntries) || mid > n*k2 {
		return h, fmt.Errorf("label: pidm: %d mid columns holding %d entries for %d vertices beside %d head columns", k2, mid, n, k)
	}
	if total < tail+mid || total > tail+mid+n*k {
		return h, fmt.Errorf("label: pidm: %d entries cannot be %d tail entries, %d mid entries and %d head slots", total, tail, mid, n*k)
	}
	if hubBytes != 4 && (hubBytes != 2 || n > 1<<16) {
		return h, fmt.Errorf("label: pidm: %d-byte hub ids for %d vertices", hubBytes, n)
	}
	h.n, h.k, h.k2, h.width, h.hubBytes = int(n), int(k), int(k2), int(width), int(hubBytes)
	h.total, h.tail, h.mid = int64(total), int64(tail), int64(mid)
	size := h.layout()
	for i := range h.lo {
		lo := binary.LittleEndian.Uint64(data[hdrOffsets+8*i:])
		if lo%mmapAlign != 0 {
			return h, fmt.Errorf("label: pidm: misaligned %s section offset %d", sectionNames[i], lo)
		}
		if lo != h.lo[i] {
			return h, fmt.Errorf("label: pidm: %s section offset inconsistent with counts", sectionNames[i])
		}
		h.crc[i] = binary.LittleEndian.Uint32(data[hdrCRCs+4*i:])
	}
	if uint64(len(data)) != size {
		return h, fmt.Errorf("label: pidm: file is %d bytes, layout needs %d (truncated section?)", len(data), size)
	}
	return h, nil
}

// retired says what data is when it is an index file of a format PIDM
// version 5 replaced, by its magic and for PIDM its version: "" when it
// is not one.
func retired(data []byte) string {
	if len(data) < 8 {
		return ""
	}
	switch string(data[0:4]) {
	case "PIDX":
		return "a PIDX (fixed-width) index"
	case "PIDC":
		return "a PIDC (compact) index"
	case mmapMagic:
		if v := binary.LittleEndian.Uint32(data[4:8]); v >= 1 && v < mmapVersion {
			return fmt.Sprintf("a PIDM version %d index", v)
		}
	}
	return ""
}

// checksumPIDM re-checksums the sections against the header — the
// O(bytes) integrity check Open skips and Verify and readPIDMStream
// perform.
func checksumPIDM(data []byte, h Header) error {
	for i, want := range h.crc {
		if got := crc32.ChecksumIEEE(data[h.lo[i] : h.lo[i]+h.size[i]]); got != want {
			return fmt.Errorf("label: pidm: %s section checksum mismatch: file %08x, computed %08x", sectionNames[i], want, got)
		}
	}
	return nil
}

// sectionOf returns section i of the validated container as count
// words: aliased in place when alias is set, decoded into fresh memory
// otherwise.
func sectionOf[T word](data []byte, h Header, i int, alias bool) []T {
	size := uint64(unsafe.Sizeof(T(0)))
	count := h.size[i] / size
	if count == 0 {
		return nil
	}
	if alias {
		return unsafe.Slice((*T)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(data)), h.lo[i])), count)
	}
	out := make([]T, count)
	for j := range out {
		var v uint64
		for _, b := range data[h.lo[i]+uint64(j)*size:][:size] {
			v = v>>8 | uint64(b)<<56
		}
		out[j] = T(v >> (64 - 8*size))
	}
	return out
}

// slice returns the sections of tail hubs and distances at H and D.
func (*arrays[H, D]) slice(data []byte, h Header, alias bool) layout {
	return &arrays[H, D]{
		hubs:     sectionOf[H](data, h, secHubs, alias),
		head:     sectionOf[D](data, h, secHead, alias),
		midDists: sectionOf[D](data, h, secMidDists, alias),
		dists:    sectionOf[D](data, h, secDists, alias),
	}
}

// slicePIDM builds an Index over the validated container — a mapped
// file, a stream read into memory or finalize's own heap image. On
// little-endian hosts with a sufficiently aligned base it aliases the
// sections in place (zero-copy); otherwise it decodes into fresh
// slices. Either way the offset invariants of the tail and of the
// middle tier (O(n), touches only the off and midOff sections) and the
// column ids of both tiers (O(K + K2)) are checked, so neither corrupt
// offsets nor a corrupt column id can panic queries later or send one
// outside its section.
func slicePIDM(data []byte, h Header) (*Index, error) {
	alias := hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0
	x := &Index{
		off:      sectionOf[uint32](data, h, secOff, alias),
		headHubs: sectionOf[graph.Vertex](data, h, secHeadHubs, alias),
		midHubs:  sectionOf[graph.Vertex](data, h, secMidHubs, alias),
		midBits:  sectionOf[uint64](data, h, secMidBits, alias),
		midOff:   sectionOf[uint32](data, h, secMidOff, alias),
		a:        layoutFor(h.hubBytes, h.width).slice(data, h, alias),
		Header:   h,
		img:      data,
	}
	if err := checkOffsets(x.off, x.midOff, h.tail, h.mid); err != nil {
		return nil, err
	}
	if err := checkColumns("head", x.headHubs, h.n); err != nil {
		return nil, err
	}
	if err := checkColumns("mid", x.midHubs, h.n); err != nil {
		return nil, err
	}
	for i, j := 0, 0; i < len(x.headHubs) && j < len(x.midHubs); {
		switch a, b := x.headHubs[i], x.midHubs[j]; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			return nil, fmt.Errorf("label: pidm: hub %d is head column %d and mid column %d", a, i, j)
		}
	}
	return x, nil
}

// checkOffsets checks that off tiles [0, end) with one run a vertex, and
// midOff, which an index without a middle tier lacks, [0, midEnd) — in
// one pass over both, which Open waits for less than for two. Both ends
// are below 2³² (parsePIDM).
func checkOffsets(off, midOff []uint32, end, midEnd int64) error {
	if midOff == nil {
		midOff, midEnd = off, end
	}
	midOff = midOff[:len(off)]
	if off[0] != 0 || off[len(off)-1] != uint32(end) {
		return fmt.Errorf("label: pidm: corrupt offsets")
	}
	if midOff[0] != 0 || midOff[len(off)-1] != uint32(midEnd) {
		return fmt.Errorf("label: pidm: corrupt mid offsets")
	}
	var prev, mprev uint32
	for i, o := range off {
		m := midOff[i]
		if o < prev {
			return fmt.Errorf("label: pidm: offsets not monotone at %d", i-1)
		}
		if m < mprev {
			return fmt.Errorf("label: pidm: mid offsets not monotone at %d", i-1)
		}
		prev, mprev = o, m
	}
	return nil
}

// checkColumns checks that a tier's column ids are vertices, ascending.
func checkColumns(tier string, cols []graph.Vertex, n int) error {
	prev := graph.Vertex(-1)
	for c, hub := range cols {
		if hub <= prev || int(hub) >= n {
			return fmt.Errorf("label: pidm: %s column %d: hub %d out of order or out of range", tier, c, hub)
		}
		prev = hub
	}
	return nil
}

// Open maps the PIDM index file at path and returns an
// Index whose arrays alias the mapping: no per-entry decode, no heap
// copy, start-up cost independent of the entry count (pages fault in on
// first touch; the offsets and the K head column ids are read). The
// header checksum and structural invariants are validated; the section
// checksums are NOT (that would read every byte) — call Verify for the
// full integrity check.
//
// The caller owns the mapping: Close unmaps it once nothing reads the
// index (see Refs), and an index nobody closes stays mapped until the
// process exits.
func Open(path string) (*Index, error) {
	mm, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	x, err := openMapping(mm)
	if err != nil {
		mm.close()
		return nil, err
	}
	return x, nil
}

// shortFile is mapFile's error for a file of size bytes, fewer than a
// PIDM header holds: the one parsePIDM gives its bytes, which names a
// retired format.
func shortFile(r io.Reader, size int64) error {
	data := make([]byte, size)
	if _, err := io.ReadFull(r, data); err != nil {
		return fmt.Errorf("label: reading a %d-byte index: %w", size, err)
	}
	_, err := parsePIDM(data)
	return err
}

// openMapping validates and slices an already-materialized container,
// transferring ownership of mm to the returned Index on success.
func openMapping(mm *mapping) (*Index, error) {
	h, err := parsePIDM(mm.data)
	if err != nil {
		return nil, err
	}
	x, err := slicePIDM(mm.data, h)
	if err != nil {
		return nil, err
	}
	// Keep the mapping even when slicePIDM decoded a copy (big-endian
	// host): Verify still needs the raw bytes, and close stays uniform.
	x.mm = mm
	return x, nil
}

// readPIDMStream heap-loads a PIDM file from a reader: the verifying
// reader FuzzOpenPIDM drives. Unlike Open it has already paid for
// reading every byte, so it also verifies the section checksums and
// every entry (checkEntries, strict).
func readPIDMStream(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	h, err := parsePIDM(data)
	if err != nil {
		return nil, err
	}
	if err := checksumPIDM(data, h); err != nil {
		return nil, err
	}
	mm := &mapping{data: data}
	x, err := openMapping(mm)
	if err != nil {
		return nil, err
	}
	if err := x.a.checkEntries(x, true); err != nil {
		return nil, err
	}
	return x, nil
}

// checkEntries is the O(entries) half of the Index invariant that Open
// skips: no tail entry names a head or mid hub, every bitmap row has as
// many bits set as its packed run has distances and none at or above
// column K2, and the header's entry count is what the sections hold.
// With strict set (the stream reader) it also rejects a tail hub id that
// names no vertex, and a distance above maxDist — 2·d would reach the
// width's all-ones value, or in a tail or mid run is it.
func (a *arrays[H, D]) checkEntries(x *Index, strict bool) error {
	n, limit := x.NumVertices(), maxDist[D]()
	tier := make([]uint8, n) // 1: the hub is a head column, 2: a mid column
	for _, hub := range x.headHubs {
		tier[hub] = 1
	}
	for _, hub := range x.midHubs {
		tier[hub] = 2
	}
	for i, hub := range a.hubs {
		if uint(hub) >= uint(n) {
			if strict {
				return fmt.Errorf("label: pidm: entry %d: hub %d out of range", i, hub)
			}
		} else if t := tier[hub]; t != 0 {
			return fmt.Errorf("label: pidm: entry %d: hub %d is a %s column", i, hub, [...]string{1: "head", 2: "mid"}[t])
		}
		if strict && uint64(a.dists[i]) > limit {
			return fmt.Errorf("label: pidm: entry %d: distance overflow", i)
		}
	}
	held := int64(len(a.hubs)) + x.mid
	if k2 := len(x.midHubs); k2 > 0 {
		w := midWords(k2)
		var spare uint64 // the bits of a row's last word that are no column
		if r := uint(k2) & 63; r != 0 {
			spare = ^uint64(0) << r
		}
		for v := 0; v < n; v++ {
			row := x.midBits[v*w:][:w]
			set := 0
			for _, word := range row {
				set += bits.OnesCount64(word)
			}
			if run := x.midOff[v+1] - x.midOff[v]; uint32(set) != run {
				return fmt.Errorf("label: pidm: vertex %d: %d bits set in its bitmap row, %d packed distances", v, set, run)
			}
			if row[w-1]&spare != 0 {
				return fmt.Errorf("label: pidm: vertex %d: bitmap bit set at or above column %d", v, k2)
			}
		}
		if strict {
			for i, d := range a.midDists {
				if uint64(d) > limit {
					return fmt.Errorf("label: pidm: mid entry %d: distance overflow", i)
				}
			}
		}
	}
	held += heldSlots(a.head)
	if strict {
		for i, d := range a.head {
			if d != ^D(0) && uint64(d) > limit {
				return fmt.Errorf("label: pidm: head slot %d: distance overflow", i)
			}
		}
	}
	if held != x.total {
		return fmt.Errorf("label: pidm: header counts %d entries, sections hold %d", x.total, held)
	}
	return nil
}

// heldSlots counts the slots of head that hold a distance, eight bytes at
// a time: held over the complement marks each byte that is not 0xFF, and
// folding a slot's marks into its first byte leaves a bit a held slot.
func heldSlots[D distance](head []D) (n int64) {
	size := int(unsafe.Sizeof(D(0)))
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(head))), len(head)*size)
	for ; len(b) >= 8; b = b[8:] {
		m := held(^binary.LittleEndian.Uint64(b))
		for s := 8; s < 8*size; s *= 2 {
			m |= m >> s
		}
		n += int64(bits.OnesCount64(m & (0x80 * (^uint64(0) / (1<<(8*size) - 1))))) // each slot's first byte
	}
	for _, d := range head[len(head)-len(b)/size:] {
		if d != ^D(0) {
			n++
		}
	}
	return n
}

// Verify is the integrity check Open defers, for an mmap-backed index:
// it re-checksums the section payloads against the header CRCs and
// checks the entries against the two column tiers (checkEntries; a tail
// hub id that is no vertex is not its business — see the Index
// invariant). It pages in the whole file. For a built index, which has
// nothing on disk, it is a no-op.
func (x *Index) Verify() error {
	if x.mm == nil || x.mm.data == nil {
		return nil
	}
	h, err := parsePIDM(x.mm.data)
	if err != nil {
		return err
	}
	if err := checksumPIDM(x.mm.data, h); err != nil {
		return err
	}
	return x.a.checkEntries(x, false)
}
