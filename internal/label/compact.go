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

// Compact on-disk index format ("PIDC"): hubs are sorted per vertex, so
// they delta-encode as small varints, and most distances are small too.
// On typical indexes this is 2–4x smaller than the fixed-width format at
// slightly higher encode/decode cost — the right trade for shipping
// indexes between the indexing and querying stages across machines,
// which is exactly what the paper's cluster deployment does.

const compactMagic = "PIDC"
const compactVersion = 1

// WriteCompact serializes the index in the varint-delta format.
func (x *Index) WriteCompact(w io.Writer) error {
	defer runtime.KeepAlive(x) // the arrays may alias a finalizer-managed mapping
	bw := bufio.NewWriterSize(w, 1<<20)
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(bw, crc)
	if _, err := mw.Write([]byte(compactMagic)); err != nil {
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], compactVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(x.NumVertices()))
	if _, err := mw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := mw.Write(buf[:n])
		return err
	}
	var hubs []graph.Vertex
	var dists []graph.Dist
	for v := 0; v < x.NumVertices(); v++ {
		hubs, dists = x.Label(graph.Vertex(v), hubs, dists)
		if err := putUvarint(uint64(len(hubs))); err != nil {
			return err
		}
		prev := int64(-1)
		for i, h := range hubs {
			if err := putUvarint(uint64(int64(h) - prev - 1)); err != nil {
				return err
			}
			prev = int64(h)
			if err := putUvarint(uint64(dists[i])); err != nil {
				return err
			}
		}
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := bw.Write(sum[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCompact deserializes an index written by WriteCompact, verifying
// the checksum and structural invariants (sorted, in-range hubs).
func ReadCompact(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	crc := crc32.NewIEEE()
	tr := &teeByteReader{r: br, crc: crc}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(tr, magic); err != nil {
		return nil, err
	}
	if string(magic) != compactMagic {
		return nil, fmt.Errorf("label: bad compact magic %q", magic)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(tr, hdr[:]); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != compactVersion {
		return nil, fmt.Errorf("label: unsupported compact version %d", v)
	}
	n := int(binary.LittleEndian.Uint64(hdr[4:12]))
	if n < 0 {
		return nil, fmt.Errorf("label: corrupt vertex count")
	}
	off := make([]int64, n+1)
	var entries []Entry
	for v := 0; v < n; v++ {
		count, err := binary.ReadUvarint(tr)
		if err != nil {
			return nil, fmt.Errorf("label: vertex %d: %w", v, err)
		}
		prev := int64(-1)
		for i := uint64(0); i < count; i++ {
			dh, err := binary.ReadUvarint(tr)
			if err != nil {
				return nil, err
			}
			hub := prev + 1 + int64(dh)
			if uint64(hub) >= uint64(n) { // a delta past 2^63 wraps negative
				return nil, fmt.Errorf("label: vertex %d: hub %d out of range", v, hub)
			}
			prev = hub
			d, err := binary.ReadUvarint(tr)
			if err != nil {
				return nil, err
			}
			if d >= uint64(graph.Inf) {
				return nil, fmt.Errorf("label: vertex %d: distance overflow", v)
			}
			entries = append(entries, Entry{Hub: graph.Vertex(hub), D: graph.Dist(d)})
		}
		off[v+1] = int64(len(entries))
	}
	want := crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("label: compact checksum mismatch: file %08x, computed %08x", got, want)
	}
	return finalizeDecoded(off, entries, FormatCompact), nil
}

// teeByteReader is an io.ByteReader + io.Reader that mirrors all read
// bytes into the checksum (binary.ReadUvarint needs ByteReader, which
// io.TeeReader does not provide).
type teeByteReader struct {
	r   *bufio.Reader
	crc io.Writer
}

func (t *teeByteReader) ReadByte() (byte, error) {
	b, err := t.r.ReadByte()
	if err == nil {
		t.crc.Write([]byte{b})
	}
	return b, err
}

func (t *teeByteReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.crc.Write(p[:n])
	}
	return n, err
}
