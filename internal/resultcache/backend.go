package resultcache

import (
	"errors"
	"sync"
	"time"
)

// ErrNotFound marks a key absent from a backend tier. Every backend
// returns it (possibly wrapped) from Get when the key has no valid entry;
// callers treat anything else as an infrastructure failure, not a miss.
var ErrNotFound = errors.New("resultcache: not found")

// Backend is one tier of content-addressed byte storage: a bounded
// in-memory LRU, the sharded on-disk store, or a Tiered pair of them.
// Keys are opaque content addresses; payloads are opaque bytes owned by
// the backend after Put and read-only after Get. All methods are safe for
// concurrent use.
type Backend interface {
	// Name identifies the tier in stats and status output ("memory",
	// "disk", "tiered").
	Name() string
	// Get returns the payload stored under key, or an error wrapping
	// ErrNotFound when no valid entry exists. Backends that can detect
	// corruption (disk framing) discard damaged entries and report them
	// as misses, never serve them.
	Get(key Key) ([]byte, error)
	// Put stores payload under key. Implementations count failures in
	// their stats as well as returning them, so a failure stays
	// attributable to the tier that failed when a Tiered pair returns it.
	Put(key Key, payload []byte) error
	// Delete removes the entry for key, if present. Absence is not an
	// error.
	Delete(key Key) error
	// Stat returns a snapshot of the tier's activity counters.
	Stat() BackendStats
	// Close releases tier resources.
	Close() error
}

// BackendStats counts one tier's activity since construction. Latency
// fields are cumulative nanoseconds over the corresponding op counts, so
// mean per-op latency is GetNanos/Gets (resp. PutNanos/Puts).
type BackendStats struct {
	// Name identifies the tier the counters belong to.
	Name string `json:"name"`
	// Gets counts Get calls; Hits+Misses == Gets.
	Gets   uint64 `json:"gets"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts and Deletes count successful-or-not mutation calls.
	Puts    uint64 `json:"puts"`
	Deletes uint64 `json:"deletes"`
	// Corrupt counts entries that failed validation and were discarded
	// (each also surfaces as a miss); Evictions counts entries dropped by
	// a size bound; WriteErrors counts failed Puts.
	Corrupt     uint64 `json:"corrupt"`
	Evictions   uint64 `json:"evictions"`
	WriteErrors uint64 `json:"write_errors"`
	// BytesRead and BytesWritten count payload-carrying bytes moved
	// through the tier (records for disk, raw payloads for memory).
	BytesRead    uint64 `json:"bytes_read"`
	BytesWritten uint64 `json:"bytes_written"`
	// GetNanos and PutNanos accumulate wall-clock op latency.
	GetNanos uint64 `json:"get_nanos"`
	PutNanos uint64 `json:"put_nanos"`
}

// tierMetrics is the shared counter block backends embed; its methods
// take the embedding backend's latency measurements and keep the
// arithmetic in one place.
type tierMetrics struct {
	mu sync.Mutex
	s  BackendStats
}

func (m *tierMetrics) observeGet(start time.Time, hit bool, bytes int) {
	elapsed := uint64(time.Since(start))
	m.mu.Lock()
	m.s.Gets++
	if hit {
		m.s.Hits++
		m.s.BytesRead += uint64(bytes)
	} else {
		m.s.Misses++
	}
	m.s.GetNanos += elapsed
	m.mu.Unlock()
}

func (m *tierMetrics) observePut(start time.Time, err error, bytes int) {
	elapsed := uint64(time.Since(start))
	m.mu.Lock()
	m.s.Puts++
	if err != nil {
		m.s.WriteErrors++
	} else {
		m.s.BytesWritten += uint64(bytes)
	}
	m.s.PutNanos += elapsed
	m.mu.Unlock()
}

func (m *tierMetrics) observeDelete() {
	m.mu.Lock()
	m.s.Deletes++
	m.mu.Unlock()
}

func (m *tierMetrics) observeCorrupt() {
	m.mu.Lock()
	m.s.Corrupt++
	m.mu.Unlock()
}

func (m *tierMetrics) addEvictions(n uint64) {
	m.mu.Lock()
	m.s.Evictions += n
	m.mu.Unlock()
}

func (m *tierMetrics) snapshot(name string) BackendStats {
	m.mu.Lock()
	s := m.s
	m.mu.Unlock()
	s.Name = name
	return s
}

// TierStats returns the per-tier counters of b: one entry per tier for a
// Tiered backend, a single entry otherwise.
func TierStats(b Backend) []BackendStats {
	if t, ok := b.(*Tiered); ok {
		return t.Tiers()
	}
	return []BackendStats{b.Stat()}
}

// entryPather is implemented by backends that can name the file an entry
// lives in (the disk tier); Cache.EntryPath delegates through it.
type entryPather interface {
	EntryPath(key Key) string
}

// dirBackend is implemented by backends rooted in a directory.
type dirBackend interface {
	Dir() string
}

// sizedBackend is implemented by backends with a measurable persistent
// footprint.
type sizedBackend interface {
	DiskBytes() int64
}
