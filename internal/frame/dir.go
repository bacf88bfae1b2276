package frame

import (
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Dir is a content-addressed, sharded store directory: one file per entry
// at <root>/<hh>/<hex key><ext>, hh being the key's first byte. It indexes
// the entries' sizes under a logical LRU clock and keeps their total under
// a byte budget. Every disk store's eviction order and file-publishing
// rules live here. All methods are safe for concurrent use.
type Dir struct {
	root     string
	ext      string
	maxBytes int64

	mu    sync.Mutex
	index map[[KeySize]byte]dirEntry
	total int64 // sum of indexed entry sizes
	clock int64 // LRU logical time
}

type dirEntry struct {
	size  int64
	atime int64 // logical LRU clock, not wall time
}

// OpenDir opens (creating if needed) the store directory root for entries
// named with extension ext (e.g. ".rc") under a budget of maxBytes, and
// indexes the entries already on disk. Temp files left by interrupted
// writes are removed; files that do not look like entries are ignored.
// Entry ages are seeded from file mtimes, oldest first, so LRU order
// survives across processes (Hit refreshes them).
func OpenDir(root, ext string, maxBytes int64) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	shards, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	type aged struct {
		key   [KeySize]byte
		size  int64
		mtime time.Time
	}
	var found []aged
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		shardDir := filepath.Join(root, sh.Name())
		files, err := os.ReadDir(shardDir)
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if strings.HasPrefix(name, "tmp-") {
				// Leftover from an interrupted write: a partial temp file
				// was never renamed into place, so it is not an entry.
				os.Remove(filepath.Join(shardDir, name))
				continue
			}
			if !strings.HasSuffix(name, ext) {
				continue
			}
			b, err := hex.DecodeString(strings.TrimSuffix(name, ext))
			if err != nil || len(b) != KeySize {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			found = append(found, aged{[KeySize]byte(b), info.Size(), info.ModTime()})
		}
	}
	// Stable, so entries sharing an mtime keep directory (key) order.
	sort.SliceStable(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	d := &Dir{root: root, ext: ext, maxBytes: maxBytes, index: make(map[[KeySize]byte]dirEntry, len(found))}
	for _, e := range found {
		d.clock++
		d.index[e.key] = dirEntry{size: e.size, atime: d.clock}
		d.total += e.size
	}
	return d, nil
}

// Root returns the store directory.
func (d *Dir) Root() string { return d.root }

// Path returns where the entry for key lives (or would live).
func (d *Dir) Path(key [KeySize]byte) string {
	hexKey := hex.EncodeToString(key[:])
	return filepath.Join(d.root, hexKey[:2], hexKey+d.ext)
}

// Bytes returns the indexed on-disk footprint.
func (d *Dir) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total
}

// Open opens the entry file for key and returns it with its size. An
// entry whose file has vanished — evicted by another process, or removed
// by an eviction racing a re-publish of the same key — is unindexed, so
// the budget stops counting it.
func (d *Dir) Open(key [KeySize]byte) (*os.File, int64, error) {
	f, err := os.Open(d.Path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			d.unindex(key)
		}
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}

// Hit records a validated read of key's size-byte entry: it refreshes the
// file's mtime (its cross-process LRU age, best-effort) and its place in
// the LRU order, indexing an entry another process published after
// OpenDir's scan.
func (d *Dir) Hit(key [KeySize]byte, size int64) {
	now := time.Now()
	os.Chtimes(d.Path(key), now, now)
	d.mu.Lock()
	d.clock++
	if e, ok := d.index[key]; ok {
		e.atime = d.clock
		d.index[key] = e
	} else {
		d.index[key] = dirEntry{size: size, atime: d.clock}
		d.total += size
	}
	d.mu.Unlock()
}

// Remove unindexes key and deletes its file. A missing file is not an
// error. Stores discard corrupt entries through it.
func (d *Dir) Remove(key [KeySize]byte) error {
	d.unindex(key)
	err := os.Remove(d.Path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

func (d *Dir) unindex(key [KeySize]byte) {
	d.mu.Lock()
	if e, ok := d.index[key]; ok {
		d.total -= e.size
		delete(d.index, key)
	}
	d.mu.Unlock()
}

// Publish writes the entry for key through write and makes it visible
// atomically (temp file + rename), so a crash mid-write never leaves a
// partial entry under the key's name. It then evicts least-recently-used
// entries past the budget — never key itself, which is kept even when it
// alone exceeds the budget — and returns the entry's size and the number
// of entries evicted.
func (d *Dir) Publish(key [KeySize]byte, write func(io.Writer) error) (size int64, evicted int, err error) {
	path := d.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	tmp, size, err := WriteTemp(filepath.Dir(path), write)
	if err != nil {
		return 0, 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}

	d.mu.Lock()
	if e, ok := d.index[key]; ok {
		d.total -= e.size
	}
	d.clock++
	d.index[key] = dirEntry{size: size, atime: d.clock}
	d.total += size
	victims := d.evictLocked(key)
	d.mu.Unlock()
	// Removing a file that another reader still has mapped is safe on
	// unix: the pages outlive the directory entry.
	for _, k := range victims {
		os.Remove(d.Path(k))
	}
	return size, len(victims), nil
}

// evictLocked (mu held) trims the index to the budget, oldest first,
// sparing the just-written key, and returns the keys whose files the
// caller must remove.
func (d *Dir) evictLocked(justWritten [KeySize]byte) [][KeySize]byte {
	var out [][KeySize]byte
	for d.total > d.maxBytes {
		var victim [KeySize]byte
		var victimAge int64
		found := false
		for k, e := range d.index {
			if k == justWritten {
				continue
			}
			if !found || e.atime < victimAge {
				victim, victimAge, found = k, e.atime, true
			}
		}
		if !found {
			break // only the fresh entry remains; keep it even if oversized
		}
		d.total -= d.index[victim].size
		delete(d.index, victim)
		out = append(out, victim)
	}
	return out
}

// WriteTemp creates a temp file in dir, fills it through write, closes it,
// and returns its path and size. The "tmp-" name prefix marks it as an
// unpublished leftover for OpenDir's sweep should the process die before
// the caller publishes it. On any error the temp file is removed.
func WriteTemp(dir string, write func(io.Writer) error) (path string, size int64, err error) {
	f, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return "", 0, err
	}
	if err = write(f); err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", 0, err
	}
	return f.Name(), size, nil
}
