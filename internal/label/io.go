package label

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"

	"parapll/internal/graph"
)

const idxMagic = "PIDX"
const idxVersion = 1

// Write serializes the index in a checksummed binary format, so the
// indexing stage (cmd/parapll-index) and the querying stage
// (cmd/parapll-query) can run as separate processes, as in the paper's
// two-stage workflow.
func (x *Index) Write(w io.Writer) error {
	defer runtime.KeepAlive(x) // the arrays may alias a finalizer-managed mapping
	bw := bufio.NewWriterSize(w, 1<<20)
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(bw, crc)
	if _, err := mw.Write([]byte(idxMagic)); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], idxVersion)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(x.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(x.NumEntries()))
	if _, err := mw.Write(hdr[:]); err != nil {
		return err
	}
	// The file holds whole labels: offsets that count head entries too,
	// then each vertex's (hub, distance) pairs in hub order.
	var buf [8]byte
	var off int64
	for v := -1; v < x.NumVertices(); v++ {
		if v >= 0 {
			off += int64(x.LabelSize(graph.Vertex(v)))
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(off))
		if _, err := mw.Write(buf[:]); err != nil {
			return err
		}
	}
	var hubs []graph.Vertex
	var dists []graph.Dist
	for v := 0; v < x.NumVertices(); v++ {
		hubs, dists = x.Label(graph.Vertex(v), hubs, dists)
		for i, h := range hubs {
			binary.LittleEndian.PutUint32(buf[0:4], uint32(h))
			binary.LittleEndian.PutUint32(buf[4:8], uint32(dists[i]))
			if _, err := mw.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	binary.LittleEndian.PutUint32(buf[0:4], crc.Sum32())
	if _, err := bw.Write(buf[0:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadIndex deserializes an index written by Write, verifying its checksum
// and structural invariants.
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	crc := crc32.NewIEEE()
	tr := io.TeeReader(br, crc)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(tr, magic); err != nil {
		return nil, err
	}
	if string(magic) != idxMagic {
		return nil, fmt.Errorf("label: bad index magic %q", magic)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(tr, hdr[:]); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != idxVersion {
		return nil, fmt.Errorf("label: unsupported index version %d", v)
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:8]))
	total := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	if n < 0 || total < 0 {
		return nil, fmt.Errorf("label: corrupt header (n=%d, total=%d)", n, total)
	}
	off := make([]int64, n+1)
	entries := make([]Entry, total)
	var buf [8]byte
	for i := range off {
		if _, err := io.ReadFull(tr, buf[:]); err != nil {
			return nil, err
		}
		off[i] = int64(binary.LittleEndian.Uint64(buf[:]))
	}
	for i := range entries {
		if _, err := io.ReadFull(tr, buf[:]); err != nil {
			return nil, err
		}
		hv := binary.LittleEndian.Uint32(buf[0:4])
		if hv >= uint32(n) {
			return nil, fmt.Errorf("label: entry %d: hub %d out of range", i, hv)
		}
		dv := binary.LittleEndian.Uint32(buf[4:8])
		if dv >= uint32(graph.Inf) {
			return nil, fmt.Errorf("label: entry %d: distance overflow", i)
		}
		entries[i] = Entry{Hub: graph.Vertex(hv), D: graph.Dist(dv)}
	}
	want := crc.Sum32()
	if _, err := io.ReadFull(br, buf[0:4]); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(buf[0:4]); got != want {
		return nil, fmt.Errorf("label: checksum mismatch: file %08x, computed %08x", got, want)
	}
	if off[0] != 0 || off[n] != total {
		return nil, fmt.Errorf("label: corrupt offsets")
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return nil, fmt.Errorf("label: offsets not monotone at %d", i)
		}
	}
	return finalizeDecoded(off, entries, FormatFixed), nil
}

// finalizeDecoded is how a stream reader ends: the whole labels it
// decoded (label v is entries[off[v]:off[v+1]]) go through the finalize
// a build ends in, so the index has the tiers its labels earn.
func finalizeDecoded(off []int64, entries []Entry, format string) *Index {
	x := finalize(len(off)-1, func(v int) []Entry { return entries[off[v]:off[v+1]] }, allTiers)
	x.format = format
	return x
}
