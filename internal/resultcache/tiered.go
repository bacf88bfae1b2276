package resultcache

import (
	"fmt"
	"time"
)

// Tiered composes a fast tier over a slow one into one Backend: Get reads
// through and promotes a slow-tier hit into the fast tier; Put writes
// through to both tiers synchronously, so once Put returns the slow tier
// holds the entry.
type Tiered struct {
	fast, slow Backend

	metrics tierMetrics
}

// NewTiered composes fast (typically a Memory) over slow (typically a
// Disk).
func NewTiered(fast, slow Backend) *Tiered {
	return &Tiered{fast: fast, slow: slow}
}

// Name implements Backend.
func (t *Tiered) Name() string { return "tiered" }

// Get implements Backend: read-through with promotion, so the next
// identical query is served by the fast tier.
func (t *Tiered) Get(key Key) ([]byte, error) {
	payload, _, err := t.GetWithSource(key)
	return payload, err
}

// GetWithSource is Get plus the name of the tier that served the hit —
// the daemon reports it so clients (and the conformance oracle) can see
// which tier answered.
func (t *Tiered) GetWithSource(key Key) ([]byte, string, error) {
	start := time.Now()
	tier := t.fast
	payload, err := tier.Get(key)
	if err != nil {
		tier = t.slow
		if payload, err = tier.Get(key); err == nil {
			t.fast.Put(key, payload)
		}
	}
	if err != nil {
		t.metrics.observeGet(start, false, 0)
		return nil, "", fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	t.metrics.observeGet(start, true, len(payload))
	return payload, tier.Name(), nil
}

// Put implements Backend: write-through to the fast tier, then the slow
// one, returning the first error. Both tiers are attempted, and each
// counts its own failures.
func (t *Tiered) Put(key Key, payload []byte) error {
	start := time.Now()
	err := t.fast.Put(key, payload)
	if serr := t.slow.Put(key, payload); err == nil {
		err = serr
	}
	t.metrics.observePut(start, err, len(payload))
	return err
}

// Delete implements Backend: the key is removed from both tiers; the
// first error wins but both are attempted.
func (t *Tiered) Delete(key Key) error {
	t.metrics.observeDelete()
	err := t.fast.Delete(key)
	if serr := t.slow.Delete(key); err == nil {
		err = serr
	}
	return err
}

// Stat implements Backend with the composition's own counters; Tiers
// exposes the per-tier breakdown.
func (t *Tiered) Stat() BackendStats { return t.metrics.snapshot(t.Name()) }

// Tiers returns the per-tier counter snapshots, fast tier first.
func (t *Tiered) Tiers() []BackendStats {
	return []BackendStats{t.fast.Stat(), t.slow.Stat()}
}

// Close implements Backend: it closes both tiers, returning the first
// error.
func (t *Tiered) Close() error {
	err := t.fast.Close()
	if serr := t.slow.Close(); err == nil {
		err = serr
	}
	return err
}

// EntryPath delegates to the slow tier when it knows file paths (the disk
// tier), so Cache.EntryPath keeps working over a Tiered backend.
func (t *Tiered) EntryPath(key Key) string {
	if p, ok := t.slow.(entryPather); ok {
		return p.EntryPath(key)
	}
	return ""
}

// Dir delegates to the slow tier when it is directory-rooted.
func (t *Tiered) Dir() string {
	if p, ok := t.slow.(dirBackend); ok {
		return p.Dir()
	}
	return ""
}

// DiskBytes delegates to the slow tier when it has a persistent
// footprint.
func (t *Tiered) DiskBytes() int64 {
	if p, ok := t.slow.(sizedBackend); ok {
		return p.DiskBytes()
	}
	return 0
}
