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
	var buf [8]byte
	for _, o := range x.off {
		binary.LittleEndian.PutUint64(buf[:], uint64(o))
		if _, err := mw.Write(buf[:]); err != nil {
			return err
		}
	}
	for i := range x.hubs {
		binary.LittleEndian.PutUint32(buf[0:4], uint32(x.hubs[i]))
		binary.LittleEndian.PutUint32(buf[4:8], uint32(x.dists[i]))
		if _, err := mw.Write(buf[:]); err != nil {
			return err
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
	x := &Index{
		off:    make([]int64, n+1),
		hubs:   make([]graph.Vertex, total),
		dists:  make([]graph.Dist, total),
		format: FormatFixed,
	}
	var buf [8]byte
	for i := range x.off {
		if _, err := io.ReadFull(tr, buf[:]); err != nil {
			return nil, err
		}
		x.off[i] = int64(binary.LittleEndian.Uint64(buf[:]))
	}
	for i := int64(0); i < total; i++ {
		if _, err := io.ReadFull(tr, buf[:]); err != nil {
			return nil, err
		}
		hv := binary.LittleEndian.Uint32(buf[0:4])
		if hv >= uint32(n) {
			return nil, fmt.Errorf("label: entry %d: hub %d out of range", i, hv)
		}
		x.hubs[i] = graph.Vertex(hv)
		dv := binary.LittleEndian.Uint32(buf[4:8])
		if dv >= uint32(graph.Inf) {
			return nil, fmt.Errorf("label: entry %d: distance overflow", i)
		}
		x.dists[i] = graph.Dist(dv)
	}
	want := crc.Sum32()
	if _, err := io.ReadFull(br, buf[0:4]); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(buf[0:4]); got != want {
		return nil, fmt.Errorf("label: checksum mismatch: file %08x, computed %08x", got, want)
	}
	if x.off[0] != 0 || x.off[n] != total {
		return nil, fmt.Errorf("label: corrupt offsets")
	}
	for i := 0; i < n; i++ {
		if x.off[i] > x.off[i+1] {
			return nil, fmt.Errorf("label: offsets not monotone at %d", i)
		}
	}
	return x, nil
}
