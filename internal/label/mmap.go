package label

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"unsafe"

	"parapll/internal/graph"
)

// Mmap-native on-disk index format ("PIDM"): the five arrays of Index
// (off, headHubs, head, hubs, dists) laid out verbatim, little-endian,
// each in its own 64-byte-aligned section, behind a fixed header. Opening
// the file is O(1) in the entries: validate the header, map the file,
// and alias the sections in place — no per-entry decode, no second copy
// of the index in memory. The label array IS the product artifact; the
// file IS the serving state.
//
// Version 2 layout (all integers little-endian), what WriteMmap emits:
//
//	[0:4)     magic "PIDM"
//	[4:8)     version (2)
//	[8:16)    n       — vertex count
//	[16:24)   total   — label entries: finite head slots + tail entries
//	[24:32)   tail    — tail entries
//	[32:40)   K       — head columns
//	[40:80)   byte offsets of the five sections, in file order:
//	          off ((n+1) × int64), headHubs (K × int32),
//	          head (n·K × uint32), hubs (tail × int32), dists (tail × uint32)
//	[80:100)  CRC32 (IEEE) of each section, same order
//	[100:124) zero
//	[124:128) CRC32 of header bytes [0:124)
//
// Sections follow in that order, each padded to a 64-byte boundary
// (cache-line, and divides the page size, so section starts stay
// aligned for any element type). The file ends exactly at the end of
// the dists section.
//
// Version 1 had no head and a 64-byte header: n, total, the offsets of
// off, hubs and dists at [24:48), their CRCs at [48:60) and the header
// CRC at [60:64). It reads as K = 0 — two empty sections — through the
// same layout, checksum and slicing code.
//
// Open validates the header checksum and the structural invariants but
// deliberately does NOT re-checksum the sections — that would page in
// the whole file and make open time O(bytes), defeating the point.
// Verify does the full check on demand; the stream reader used by
// ReadAny always verifies (it has read every byte anyway).

const (
	mmapMagic    = "PIDM"
	mmapVersion  = 2
	mmapHeaderV1 = 64 // also the least any PIDM file holds
	mmapHeaderV2 = 128
	mmapAlign    = 64

	// maxMmapEntries bounds the tail entry count and the head slot count
	// so section arithmetic can never overflow uint64 (and a corrupt
	// header cannot make us map absurd lengths).
	maxMmapEntries = int64(1) << 48
)

// The sections, in file order.
const (
	secOff = iota
	secHeadHubs
	secHead
	secHubs
	secDists
	numSections
)

var sectionNames = [numSections]string{"off", "headHubs", "head", "hubs", "dists"}

// hostLittleEndian reports whether this machine stores integers
// little-endian — the precondition for aliasing PIDM sections in place.
// Big-endian hosts fall back to an eager decode of the same bytes.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func alignUp(x uint64) uint64 { return (x + mmapAlign - 1) &^ (mmapAlign - 1) }

// mmapLayout returns the byte offset and length of each section and the
// total file size for an index with n vertices, k head columns and tail
// tail entries behind a header of hdr bytes.
func mmapLayout(hdr, n, k int, tail int64) (lo, size [numSections]uint64, fileSize uint64) {
	size = [numSections]uint64{
		secOff:      uint64(n+1) * 8,
		secHeadHubs: uint64(k) * 4,
		secHead:     uint64(n) * uint64(k) * 4,
		secHubs:     uint64(tail) * 4,
		secDists:    uint64(tail) * 4,
	}
	end := uint64(hdr)
	for i := range lo {
		lo[i] = alignUp(end)
		end = lo[i] + size[i]
	}
	return lo, size, end
}

// mapping owns the backing bytes of an mmap-opened index: a real
// mapping on unix, a heap buffer on the fallback platforms and the
// stream-read path. close is idempotent; a finalizer backstops leaked
// mappings so hot-swapped snapshots release their pages once the last
// query referencing them is gone. The finalizer is only safe because
// every reader of the aliased arrays pins the owning Index with
// runtime.KeepAlive until its last dereference (see the Index
// memory-model comment) — the slices themselves point into non-heap
// memory and do not keep the mapping reachable.
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

// pidmBlock is the size of the buffer WriteMmap encodes sections
// through: large enough that the per-block checksum and write calls
// vanish beside the encoding, small enough to stay in L2.
const pidmBlock = 64 << 10

// writeLE writes vals to w as little-endian words of their own width,
// one block at a time.
func writeLE[T ~int32 | ~uint32 | ~int64](w io.Writer, block []byte, vals []T) error {
	size := int(unsafe.Sizeof(T(0)))
	for len(vals) > 0 {
		k := min(len(vals), len(block)/size)
		for i, v := range vals[:k] {
			if size == 8 {
				binary.LittleEndian.PutUint64(block[8*i:], uint64(v))
			} else {
				binary.LittleEndian.PutUint32(block[4*i:], uint32(v))
			}
		}
		if _, err := w.Write(block[:size*k]); err != nil {
			return err
		}
		vals = vals[k:]
	}
	return nil
}

// WriteMmap serializes the index in the mmap-native PIDM format. Two
// passes over the sections, both through one reused block: one into the
// checksums (the header precedes the sections in the file), one into w.
func (x *Index) WriteMmap(w io.Writer) error {
	defer runtime.KeepAlive(x) // the arrays may alias a finalizer-managed mapping
	n, k, tail := x.NumVertices(), len(x.headHubs), int64(len(x.hubs))
	lo, size, _ := mmapLayout(mmapHeaderV2, n, k, tail)

	block := make([]byte, pidmBlock)
	section := func(w io.Writer, i int) error {
		switch i {
		case secOff:
			return writeLE(w, block, x.off)
		case secHeadHubs:
			return writeLE(w, block, x.headHubs)
		case secHead:
			return writeLE(w, block, x.head)
		case secHubs:
			return writeLE(w, block, x.hubs)
		default:
			return writeLE(w, block, x.dists)
		}
	}

	hdr := make([]byte, mmapHeaderV2)
	copy(hdr[0:4], mmapMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], mmapVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(x.total))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(tail))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(k))
	for i := 0; i < numSections; i++ {
		crc := crc32.NewIEEE()
		_ = section(crc, i) // a hash.Hash's Write never fails
		binary.LittleEndian.PutUint64(hdr[40+8*i:], lo[i])
		binary.LittleEndian.PutUint32(hdr[80+4*i:], crc.Sum32())
	}
	binary.LittleEndian.PutUint32(hdr[124:128], crc32.ChecksumIEEE(hdr[0:124]))

	if _, err := w.Write(hdr); err != nil {
		return err
	}
	end := uint64(mmapHeaderV2)
	for i := 0; i < numSections; i++ {
		var zero [mmapAlign]byte
		if _, err := w.Write(zero[:lo[i]-end]); err != nil {
			return err
		}
		if err := section(w, i); err != nil {
			return err
		}
		end = lo[i] + size[i]
	}
	return nil
}

// pidmHeader is the parsed, validated PIDM header of either version.
type pidmHeader struct {
	n, k     int
	total    int64 // label entries, head slots included
	tail     int64 // tail entries
	lo, size [numSections]uint64
	crc      [numSections]uint32
}

// parsePIDM validates the container: magic, version, header checksum,
// overflow-safe counts, section alignment and exact file extent. It
// does not touch the section payloads.
func parsePIDM(data []byte) (pidmHeader, error) {
	var h pidmHeader
	if len(data) < mmapHeaderV1 {
		return h, fmt.Errorf("label: pidm: truncated header (%d bytes)", len(data))
	}
	if string(data[0:4]) != mmapMagic {
		return h, fmt.Errorf("label: pidm: bad magic %q", data[0:4])
	}
	// Where each version keeps what: its header size, the sections whose
	// offset and CRC it stores (the rest are empty), and where.
	hdr, stored, offAt, crcAt := mmapHeaderV2, []int{secOff, secHeadHubs, secHead, secHubs, secDists}, 40, 80
	switch v := binary.LittleEndian.Uint32(data[4:8]); v {
	case 1:
		hdr, stored, offAt, crcAt = mmapHeaderV1, []int{secOff, secHubs, secDists}, 24, 48
	case mmapVersion:
		if len(data) < hdr {
			return h, fmt.Errorf("label: pidm: truncated header (%d bytes)", len(data))
		}
	default:
		return h, fmt.Errorf("label: pidm: unsupported version %d", v)
	}
	if got, want := binary.LittleEndian.Uint32(data[hdr-4:hdr]), crc32.ChecksumIEEE(data[0:hdr-4]); got != want {
		return h, fmt.Errorf("label: pidm: header checksum mismatch: file %08x, computed %08x", got, want)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	total := binary.LittleEndian.Uint64(data[16:24])
	tail, k := total, uint64(0)
	if hdr == mmapHeaderV2 {
		tail = binary.LittleEndian.Uint64(data[24:32])
		k = binary.LittleEndian.Uint64(data[32:40])
	}
	if n > math.MaxInt32 {
		return h, fmt.Errorf("label: pidm: vertex count %d overflows", n)
	}
	if tail > uint64(maxMmapEntries) {
		return h, fmt.Errorf("label: pidm: entry count %d overflows", tail)
	}
	if k > n || n*k > uint64(maxMmapEntries) {
		return h, fmt.Errorf("label: pidm: %d head columns for %d vertices", k, n)
	}
	if total < tail || total > tail+n*k {
		return h, fmt.Errorf("label: pidm: %d entries cannot be %d tail entries and %d head slots", total, tail, n*k)
	}
	h.n, h.k, h.total, h.tail = int(n), int(k), int64(total), int64(tail)
	var size uint64
	h.lo, h.size, size = mmapLayout(hdr, h.n, h.k, h.tail)
	for j, i := range stored {
		lo := binary.LittleEndian.Uint64(data[offAt+8*j:])
		if lo%mmapAlign != 0 {
			return h, fmt.Errorf("label: pidm: misaligned %s section offset %d", sectionNames[i], lo)
		}
		if lo != h.lo[i] {
			return h, fmt.Errorf("label: pidm: %s section offset inconsistent with counts", sectionNames[i])
		}
		h.crc[i] = binary.LittleEndian.Uint32(data[crcAt+4*j:])
	}
	if uint64(len(data)) != size {
		return h, fmt.Errorf("label: pidm: file is %d bytes, layout needs %d (truncated section?)", len(data), size)
	}
	return h, nil
}

// checksumPIDM re-checksums the sections against the header — the
// O(bytes) integrity check Open skips and Verify/ReadAny perform. (The
// sections a version 1 header has no CRC for are empty, and so is
// theirs: zero.)
func checksumPIDM(data []byte, h pidmHeader) error {
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
func sectionOf[T ~int32 | ~uint32 | ~int64](data []byte, h pidmHeader, i int, alias bool) []T {
	count := h.size[i] / uint64(unsafe.Sizeof(T(0)))
	if count == 0 {
		return nil
	}
	if alias {
		return unsafe.Slice((*T)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(data)), h.lo[i])), count)
	}
	out := make([]T, count)
	for j := range out {
		if unsafe.Sizeof(T(0)) == 8 {
			out[j] = T(binary.LittleEndian.Uint64(data[h.lo[i]+uint64(j)*8:]))
		} else {
			out[j] = T(binary.LittleEndian.Uint32(data[h.lo[i]+uint64(j)*4:]))
		}
	}
	return out
}

// slicePIDM builds an Index over the validated container. On
// little-endian hosts with a sufficiently aligned base it aliases the
// sections in place (zero-copy); otherwise it decodes into fresh
// slices. Either way the offset invariants (O(n), touches only the off
// section) and the head columns (O(K)) are checked, so neither corrupt
// offsets nor a corrupt column id can panic queries later.
func slicePIDM(data []byte, h pidmHeader) (*Index, error) {
	alias := hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0
	x := &Index{
		off:      sectionOf[int64](data, h, secOff, alias),
		headHubs: sectionOf[graph.Vertex](data, h, secHeadHubs, alias),
		head:     sectionOf[graph.Dist](data, h, secHead, alias),
		hubs:     sectionOf[graph.Vertex](data, h, secHubs, alias),
		dists:    sectionOf[graph.Dist](data, h, secDists, alias),
		total:    h.total,
		format:   FormatMmap,
	}
	if x.off[0] != 0 || x.off[h.n] != h.tail {
		return nil, fmt.Errorf("label: pidm: corrupt offsets")
	}
	for i := 0; i < h.n; i++ {
		if x.off[i] > x.off[i+1] {
			return nil, fmt.Errorf("label: pidm: offsets not monotone at %d", i)
		}
	}
	prev := graph.Vertex(-1)
	for c, hub := range x.headHubs {
		if hub <= prev || int(hub) >= h.n {
			return nil, fmt.Errorf("label: pidm: head column %d: hub %d out of order or out of range", c, hub)
		}
		prev = hub
	}
	return x, nil
}

// Open maps the PIDM index file at path (either version) and returns an
// Index whose arrays alias the mapping: no per-entry decode, no heap
// copy, start-up cost independent of the entry count (pages fault in on
// first touch; the offsets and the K head column ids are read). The
// header checksum and structural invariants are validated; the section
// checksums are NOT (that would read every byte) — call Verify for the
// full integrity check.
//
// The returned Index must not be used after Close. If Close is never
// called, a finalizer releases the mapping when the Index becomes
// unreachable, which is what lets a server hot-swap indexes without
// tracking when in-flight queries drain; in-flight reads are protected
// because every Index method keeps the Index (and hence the mapping)
// reachable via runtime.KeepAlive until its last array access.
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
	runtime.SetFinalizer(mm, (*mapping).close)
	return x, nil
}

// readPIDMStream heap-loads a PIDM file from a reader (the ReadAny
// path). Unlike Open it has already paid for reading every byte, so it
// also verifies the section checksums and the entries, matching the
// guarantees of the PIDX/PIDC stream readers.
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
	if err := x.checkEntries(true); err != nil {
		return nil, err
	}
	return x, nil
}

// checkEntries is the O(entries) half of the Index invariant that Open
// skips: no tail entry names a head hub, and the header's entry count is
// what the sections hold. With strict set it is also what the PIDX and
// PIDC readers reject: a tail hub id that names no vertex, a tail
// distance of graph.Inf.
func (x *Index) checkEntries(strict bool) error {
	defer runtime.KeepAlive(x)
	n := x.NumVertices()
	isHead := make([]bool, n)
	for _, hub := range x.headHubs {
		isHead[hub] = true
	}
	for i, hub := range x.hubs {
		if uint(hub) >= uint(n) {
			if strict {
				return fmt.Errorf("label: pidm: entry %d: hub %d out of range", i, hub)
			}
		} else if isHead[hub] {
			return fmt.Errorf("label: pidm: entry %d: hub %d is a head column", i, hub)
		}
		if strict && x.dists[i] == graph.Inf {
			return fmt.Errorf("label: pidm: entry %d: distance overflow", i)
		}
	}
	held := int64(len(x.hubs))
	for _, d := range x.head {
		if d != graph.Inf {
			held++
		}
	}
	if held != x.total {
		return fmt.Errorf("label: pidm: header counts %d entries, sections hold %d", x.total, held)
	}
	return nil
}

// Verify is the integrity check Open defers, for an mmap-backed index:
// it re-checksums the section payloads against the header CRCs and
// checks the entries against the head (checkEntries; a tail hub id that
// is no vertex is not its business — see the Index invariant). It pages
// in the whole file. For heap-decoded indexes (stream readers verify on
// read; built indexes have nothing on disk) it is a no-op.
func (x *Index) Verify() error {
	defer runtime.KeepAlive(x) // keep the mapping alive through the checksum scan
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
	return x.checkEntries(false)
}
