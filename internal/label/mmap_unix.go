//go:build unix

package label

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile memory-maps path read-only. The mapping is shared and
// demand-paged: Open cost is independent of file size, and cold
// sections are charged to the first query that touches them.
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
		return nil, fmt.Errorf("label: %s: too large to map on this platform", path)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("label: mmap %s: %w", path, err)
	}
	return &mapping{data: data, mapped: true, unmap: syscall.Munmap}, nil
}
