package tracestore

import (
	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/frame"
)

// Slab is one converted trace, resident in the store. Its record slice is
// a read-only view into an mmap'd file (or, after a write failure, a
// plain heap slab) and stays valid until Release drops the last reference
// AND the store has evicted it from residency — a slab is never unmapped
// under a simulation that still holds it.
type Slab struct {
	store *Store
	key   Key
	conv  core.Stats
	recs  []champtrace.Instruction

	// data is the raw mapping backing recs; nil for heap slabs.
	data []byte
	// heap marks a slab whose records live on the Go heap (write-failure
	// fallback, or the non-mmap platform path for disk loads). Destroying
	// a heap slab recycles the records into the store's scratch pool.
	heap bool

	// The fields below are guarded by store.mu.
	refs     int32
	resident bool
	lastUse  uint64
	// destroyed is a test hook: set exactly once, when the backing memory
	// is released.
	destroyed bool
}

// Records returns the simulation-ready instruction slab. The slice is
// shared and read-only; it must not be retained past Release.
func (s *Slab) Records() []champtrace.Instruction { return s.recs }

// Conv returns the converter statistics captured when the slab was built.
// They are part of the slab's content: figure rendering consumes them, so
// a slab load must reproduce them exactly as a fresh conversion would.
func (s *Slab) Conv() core.Stats { return s.conv }

// Len returns the record count.
func (s *Slab) Len() int { return len(s.recs) }

// Release drops the caller's reference. The backing memory is freed only
// once no caller holds a reference and the store no longer keeps the slab
// resident for reuse.
func (s *Slab) Release() {
	if s == nil {
		return
	}
	st := s.store
	st.mu.Lock()
	if s.refs <= 0 {
		st.mu.Unlock()
		panic("tracestore: Release without matching reference")
	}
	s.refs--
	drop := s.refs == 0 && (!s.resident || st.closed)
	st.mu.Unlock()
	if drop {
		s.destroy()
	}
}

// destroy releases the backing memory. Callers must have established that
// no reference remains and the store has dropped residency.
func (s *Slab) destroy() {
	if s.data != nil {
		frame.Unmap(s.data)
		s.data = nil
	} else if s.heap && s.store != nil {
		s.store.putScratch(s.recs)
	}
	s.recs = nil
	s.store.mu.Lock()
	s.destroyed = true
	s.store.mu.Unlock()
}
