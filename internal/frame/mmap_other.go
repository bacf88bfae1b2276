//go:build !unix

package frame

import (
	"io"
	"os"
)

// MapFile on platforms without the unix mmap surface falls back to reading
// the first size bytes of f into a heap buffer. Semantics are identical;
// only cross-process page sharing is lost. An empty file maps to nil.
func MapFile(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Unmap releases a mapping returned by MapFile (a no-op for heap copies).
func Unmap([]byte) error { return nil }
