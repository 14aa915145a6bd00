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

// Mmap-native on-disk index format ("PIDM"): the three arrays of Index
// (off, hubs, dists) laid out verbatim, little-endian, each in its own
// 64-byte-aligned section, behind a fixed 64-byte header. Opening the
// file is O(1): validate the header, map the file, and alias the
// sections in place — no per-entry decode, no second copy of the index
// in memory. The label array IS the product artifact; the file IS the
// serving state.
//
// Layout (all integers little-endian):
//
//	[0:4)    magic "PIDM"
//	[4:8)    version (1)
//	[8:16)   n       — vertex count
//	[16:24)  total   — entry count
//	[24:32)  byte offset of the off   section ((n+1) × int64)
//	[32:40)  byte offset of the hubs  section (total × int32)
//	[40:48)  byte offset of the dists section (total × uint32)
//	[48:52)  CRC32 (IEEE) of the off section
//	[52:56)  CRC32 of the hubs section
//	[56:60)  CRC32 of the dists section
//	[60:64)  CRC32 of header bytes [0:60)
//
// Sections follow in order, each padded to a 64-byte boundary
// (cache-line, and divides the page size, so section starts stay
// aligned for any element type). The file ends exactly at the end of
// the dists section.
//
// Open validates the header checksum and the structural invariants but
// deliberately does NOT re-checksum the sections — that would page in
// the whole file and make open time O(bytes), defeating the point.
// Verify does the full check on demand; the stream reader used by
// ReadAny always verifies (it has read every byte anyway).

const (
	mmapMagic      = "PIDM"
	mmapVersion    = 1
	mmapHeaderSize = 64
	mmapAlign      = 64

	// maxMmapEntries bounds the entry count so section arithmetic can
	// never overflow uint64 (and a corrupt header cannot make us map
	// absurd lengths).
	maxMmapEntries = int64(1) << 48
)

// hostLittleEndian reports whether this machine stores integers
// little-endian — the precondition for aliasing PIDM sections in place.
// Big-endian hosts fall back to an eager decode of the same bytes.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func alignUp(x uint64) uint64 { return (x + mmapAlign - 1) &^ (mmapAlign - 1) }

// mmapLayout returns the byte offsets of the three sections and the
// total file size for an index with n vertices and total entries.
func mmapLayout(n int, total int64) (offSec, hubsSec, distsSec, size uint64) {
	offSec = mmapHeaderSize
	hubsSec = alignUp(offSec + uint64(n+1)*8)
	distsSec = alignUp(hubsSec + uint64(total)*4)
	size = distsSec + uint64(total)*4
	return
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
	n := x.NumVertices()
	total := x.NumEntries()
	offSec, hubsSec, distsSec, _ := mmapLayout(n, total)

	block := make([]byte, pidmBlock)
	crcOff, crcHubs, crcDists := crc32.NewIEEE(), crc32.NewIEEE(), crc32.NewIEEE()
	// A hash.Hash's Write never fails.
	_ = writeLE(crcOff, block, x.off)
	_ = writeLE(crcHubs, block, x.hubs)
	_ = writeLE(crcDists, block, x.dists)

	hdr := make([]byte, mmapHeaderSize)
	copy(hdr[0:4], mmapMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], mmapVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(total))
	binary.LittleEndian.PutUint64(hdr[24:32], offSec)
	binary.LittleEndian.PutUint64(hdr[32:40], hubsSec)
	binary.LittleEndian.PutUint64(hdr[40:48], distsSec)
	binary.LittleEndian.PutUint32(hdr[48:52], crcOff.Sum32())
	binary.LittleEndian.PutUint32(hdr[52:56], crcHubs.Sum32())
	binary.LittleEndian.PutUint32(hdr[56:60], crcDists.Sum32())
	binary.LittleEndian.PutUint32(hdr[60:64], crc32.ChecksumIEEE(hdr[0:60]))

	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if err := writeLE(w, block, x.off); err != nil {
		return err
	}
	if err := writePad(w, hubsSec-(offSec+uint64(n+1)*8)); err != nil {
		return err
	}
	if err := writeLE(w, block, x.hubs); err != nil {
		return err
	}
	if err := writePad(w, distsSec-(hubsSec+uint64(total)*4)); err != nil {
		return err
	}
	return writeLE(w, block, x.dists)
}

func writePad(w io.Writer, n uint64) error {
	var zero [mmapAlign]byte
	_, err := w.Write(zero[:n])
	return err
}

// pidmHeader is the parsed, validated PIDM header.
type pidmHeader struct {
	n        int
	total    int64
	offSec   uint64
	hubsSec  uint64
	distsSec uint64
	crcOff   uint32
	crcHubs  uint32
	crcDists uint32
}

// parsePIDM validates the container: magic, version, header checksum,
// overflow-safe counts, section alignment and exact file extent. It
// does not touch the section payloads.
func parsePIDM(data []byte) (pidmHeader, error) {
	var h pidmHeader
	if len(data) < mmapHeaderSize {
		return h, fmt.Errorf("label: pidm: truncated header (%d bytes)", len(data))
	}
	if string(data[0:4]) != mmapMagic {
		return h, fmt.Errorf("label: pidm: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != mmapVersion {
		return h, fmt.Errorf("label: pidm: unsupported version %d", v)
	}
	if got, want := binary.LittleEndian.Uint32(data[60:64]), crc32.ChecksumIEEE(data[0:60]); got != want {
		return h, fmt.Errorf("label: pidm: header checksum mismatch: file %08x, computed %08x", got, want)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	total := binary.LittleEndian.Uint64(data[16:24])
	if n > math.MaxInt32 {
		return h, fmt.Errorf("label: pidm: vertex count %d overflows", n)
	}
	if total > uint64(maxMmapEntries) {
		return h, fmt.Errorf("label: pidm: entry count %d overflows", total)
	}
	h.n = int(n)
	h.total = int64(total)
	h.offSec = binary.LittleEndian.Uint64(data[24:32])
	h.hubsSec = binary.LittleEndian.Uint64(data[32:40])
	h.distsSec = binary.LittleEndian.Uint64(data[40:48])
	if h.offSec%mmapAlign != 0 || h.hubsSec%mmapAlign != 0 || h.distsSec%mmapAlign != 0 {
		return h, fmt.Errorf("label: pidm: misaligned section offset (%d/%d/%d)", h.offSec, h.hubsSec, h.distsSec)
	}
	wantOff, wantHubs, wantDists, wantSize := mmapLayout(h.n, h.total)
	if h.offSec != wantOff || h.hubsSec != wantHubs || h.distsSec != wantDists {
		return h, fmt.Errorf("label: pidm: section offsets inconsistent with counts")
	}
	if uint64(len(data)) != wantSize {
		return h, fmt.Errorf("label: pidm: file is %d bytes, layout needs %d (truncated section?)", len(data), wantSize)
	}
	h.crcOff = binary.LittleEndian.Uint32(data[48:52])
	h.crcHubs = binary.LittleEndian.Uint32(data[52:56])
	h.crcDists = binary.LittleEndian.Uint32(data[56:60])
	return h, nil
}

// checksumPIDM re-checksums the three sections against the header — the
// O(bytes) integrity check Open skips and Verify/ReadAny perform.
func checksumPIDM(data []byte, h pidmHeader) error {
	check := func(name string, lo, size uint64, want uint32) error {
		if got := crc32.ChecksumIEEE(data[lo : lo+size]); got != want {
			return fmt.Errorf("label: pidm: %s section checksum mismatch: file %08x, computed %08x", name, want, got)
		}
		return nil
	}
	if err := check("off", h.offSec, uint64(h.n+1)*8, h.crcOff); err != nil {
		return err
	}
	if err := check("hubs", h.hubsSec, uint64(h.total)*4, h.crcHubs); err != nil {
		return err
	}
	return check("dists", h.distsSec, uint64(h.total)*4, h.crcDists)
}

// slicePIDM builds an Index over the validated container. On
// little-endian hosts with a sufficiently aligned base it aliases the
// sections in place (zero-copy); otherwise it decodes into fresh
// slices. Either way the offset invariants are checked (O(n), touches
// only the off section) so corrupt offsets cannot panic queries later.
func slicePIDM(data []byte, h pidmHeader) (x *Index, aliased bool, err error) {
	x = &Index{format: FormatMmap}
	base := unsafe.Pointer(unsafe.SliceData(data))
	if hostLittleEndian && uintptr(base)%8 == 0 {
		x.off = unsafe.Slice((*int64)(unsafe.Add(base, h.offSec)), h.n+1)
		if h.total > 0 {
			x.hubs = unsafe.Slice((*graph.Vertex)(unsafe.Add(base, h.hubsSec)), h.total)
			x.dists = unsafe.Slice((*graph.Dist)(unsafe.Add(base, h.distsSec)), h.total)
		}
		aliased = true
	} else {
		x.off = make([]int64, h.n+1)
		for i := range x.off {
			x.off[i] = int64(binary.LittleEndian.Uint64(data[h.offSec+uint64(i)*8:]))
		}
		x.hubs = make([]graph.Vertex, h.total)
		x.dists = make([]graph.Dist, h.total)
		for i := int64(0); i < h.total; i++ {
			x.hubs[i] = graph.Vertex(binary.LittleEndian.Uint32(data[h.hubsSec+uint64(i)*4:]))
			dv := binary.LittleEndian.Uint32(data[h.distsSec+uint64(i)*4:])
			if dv >= uint32(graph.Inf) {
				return nil, false, fmt.Errorf("label: pidm: entry %d: distance overflow", i)
			}
			x.dists[i] = graph.Dist(dv)
		}
	}
	if x.off[0] != 0 || x.off[h.n] != h.total {
		return nil, false, fmt.Errorf("label: pidm: corrupt offsets")
	}
	for i := 0; i < h.n; i++ {
		if x.off[i] > x.off[i+1] {
			return nil, false, fmt.Errorf("label: pidm: offsets not monotone at %d", i)
		}
	}
	return x, aliased, nil
}

// Open maps the PIDM index file at path and returns an Index whose
// arrays alias the mapping: no per-entry decode, no heap copy, start-up
// cost independent of index size (pages fault in on first touch). The
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
	x, _, err := slicePIDM(mm.data, h)
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
// also verifies the section checksums and the hub range, matching the
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
	if err := x.checkHubs(); err != nil {
		return nil, err
	}
	return x, nil
}

// checkHubs is the O(entries) half of the Index invariant that Open
// skips: every hub id names a vertex.
func (x *Index) checkHubs() error {
	defer runtime.KeepAlive(x)
	n := x.NumVertices()
	for i, hub := range x.hubs {
		if uint(hub) >= uint(n) {
			return fmt.Errorf("label: pidm: entry %d: hub %d out of range", i, hub)
		}
	}
	return nil
}

// Verify re-checksums the section payloads of an mmap-backed index
// against the header CRCs — the integrity check Open defers. It pages
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
	return checksumPIDM(x.mm.data, h)
}
