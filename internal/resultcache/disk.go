package resultcache

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"tracerebase/internal/frame"
)

// DiskConfig parameterizes NewDisk.
type DiskConfig struct {
	// Dir is the store root. Entries live under Dir/v<SchemaVersion>/,
	// sharded by the first key byte.
	Dir string
	// MaxBytes bounds the on-disk footprint; least-recently-used entries
	// are evicted past it. <= 0 selects the 1 GiB default.
	MaxBytes int64
}

// Disk is the sharded on-disk backend: checksummed self-validating
// records in a frame.Dir, which publishes them atomically and evicts
// least-recently-used entries under a size bound. It is the durable tier
// every other backend sits in front of.
type Disk struct {
	dir     *frame.Dir // versioned root: DiskConfig.Dir/v<SchemaVersion>
	metrics tierMetrics
}

// NewDisk opens (creating if needed) the disk backend rooted at cfg.Dir
// and indexes the entries already on disk. Leftover temp files from
// interrupted writes are removed; files that do not look like entries are
// ignored.
func NewDisk(cfg DiskConfig) (*Disk, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("resultcache: empty cache directory")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	dir, err := frame.OpenDir(filepath.Join(cfg.Dir, fmt.Sprintf("v%d", SchemaVersion)), ".rc", cfg.MaxBytes)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Disk{dir: dir}, nil
}

// Name implements Backend.
func (d *Disk) Name() string { return "disk" }

// EntryPath returns where the entry for key lives (or would live) on disk.
func (d *Disk) EntryPath(key Key) string { return d.dir.Path(key) }

// Dir returns the versioned store root.
func (d *Disk) Dir() string { return d.dir.Root() }

// Stat implements Backend.
func (d *Disk) Stat() BackendStats { return d.metrics.snapshot(d.Name()) }

// DiskBytes returns the indexed on-disk footprint.
func (d *Disk) DiskBytes() int64 { return d.dir.Bytes() }

// Get implements Backend: it loads and validates the on-disk record for
// key. Corrupt entries are discarded — counted, removed, reported as a
// miss — never served.
func (d *Disk) Get(key Key) ([]byte, error) {
	start := time.Now()
	f, size, err := d.dir.Open(key)
	var buf []byte
	if err == nil {
		buf = make([]byte, size)
		_, err = io.ReadFull(f, buf)
		f.Close()
	}
	if err != nil {
		d.metrics.observeGet(start, false, 0)
		return nil, fmt.Errorf("%w: %s: %v", ErrNotFound, key, err)
	}
	payload, err := decodeRecord(key, buf)
	if err != nil {
		// Corrupt or undecodable: discard so it is recomputed, never
		// served.
		d.dir.Remove(key)
		d.metrics.observeCorrupt()
		d.metrics.observeGet(start, false, 0)
		return nil, fmt.Errorf("%w: %s: %v", ErrNotFound, key, err)
	}
	d.dir.Hit(key, size)
	d.metrics.observeGet(start, true, len(buf))
	return payload, nil
}

// Put implements Backend: it frames payload as a self-validating record,
// publishes it atomically (a crash mid-write never leaves a partial entry
// visible), and evicts past the size bound.
func (d *Disk) Put(key Key, payload []byte) (err error) {
	start := time.Now()
	rec := encodeRecord(key, payload)
	defer func() { d.metrics.observePut(start, err, len(rec)) }()
	_, evicted, err := d.dir.Publish(key, func(w io.Writer) error {
		_, err := w.Write(rec)
		return err
	})
	d.metrics.addEvictions(uint64(evicted))
	return err
}

// Delete implements Backend.
func (d *Disk) Delete(key Key) error {
	d.metrics.observeDelete()
	return d.dir.Remove(key)
}

// Close implements Backend (no buffered state to flush).
func (d *Disk) Close() error { return nil }
