//go:build unix

package frame

import (
	"os"
	"syscall"
)

// MapFile maps size bytes of f read-only and shared: every reader of the
// same file, in this process or another, shares one copy in the page
// cache. The mapping outlives both f and the file's directory entry, so an
// LRU sweep may unlink a file that is still mapped; the pages stay valid
// until Unmap. An empty file maps to nil.
func MapFile(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// Unmap releases a mapping returned by MapFile.
func Unmap(data []byte) error {
	if data == nil {
		return nil
	}
	return syscall.Munmap(data)
}
