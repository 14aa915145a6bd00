//go:build !unix

package label

import (
	"fmt"
	"io"
	"os"
	"unsafe"
)

// mapFile on platforms without mmap support is a pure-read fallback: it
// loads the whole file into an 8-byte-aligned heap buffer and lets the
// shared aliasing path slice it. Not zero-copy, but the same format,
// validation and query code run everywhere.
func mapFile(path string) (*mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < mmapHeader {
		return nil, shortFile(f, size)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("label: %s: too large to load on this platform", path)
	}
	// Back the buffer with []uint64 so the base is 8-byte aligned; the
	// 64-byte-aligned section offsets then keep every element aligned.
	words := make([]uint64, (size+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("label: reading %s: %w", path, err)
	}
	return &mapping{data: data}, nil
}
