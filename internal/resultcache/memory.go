package resultcache

import (
	"container/list"
	"sync"
	"time"
)

// DefaultMemoryBytes is the in-memory tier budget when MemoryConfig leaves
// MaxBytes unset: large enough to hold every result of a full sweep many
// times over, small enough to stay invisible next to the simulator's own
// working set.
const DefaultMemoryBytes = 256 << 20

// Memory is a bounded in-memory LRU byte store: the fastest tier of a
// Tiered composition, and the one a long-running daemon answers repeat
// queries from. Payloads are stored by reference — callers must treat
// both Put payloads and Get results as immutable.
type Memory struct {
	maxBytes int64

	metrics tierMetrics

	mu    sync.Mutex
	order *list.List // front = most recently used; values are *memEntry
	byKey map[Key]*list.Element
	total int64
}

type memEntry struct {
	key     Key
	payload []byte
}

// NewMemory returns a memory backend bounded at maxBytes (<= 0 selects
// DefaultMemoryBytes).
func NewMemory(maxBytes int64) *Memory {
	if maxBytes <= 0 {
		maxBytes = DefaultMemoryBytes
	}
	return &Memory{
		maxBytes: maxBytes,
		order:    list.New(),
		byKey:    make(map[Key]*list.Element),
	}
}

// Name implements Backend.
func (m *Memory) Name() string { return "memory" }

// Stat implements Backend.
func (m *Memory) Stat() BackendStats {
	s := m.metrics.snapshot(m.Name())
	return s
}

// Len returns the number of resident entries.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// Bytes returns the resident payload footprint.
func (m *Memory) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Get implements Backend.
func (m *Memory) Get(key Key) ([]byte, error) {
	start := time.Now()
	m.mu.Lock()
	el, ok := m.byKey[key]
	var payload []byte
	if ok {
		m.order.MoveToFront(el)
		payload = el.Value.(*memEntry).payload
	}
	m.mu.Unlock()
	m.metrics.observeGet(start, ok, len(payload))
	if !ok {
		return nil, ErrNotFound
	}
	return payload, nil
}

// Put implements Backend. An entry larger than the whole budget is
// rejected quietly (stored nowhere, counted nowhere) rather than wiping
// the tier to make room for it.
func (m *Memory) Put(key Key, payload []byte) error {
	if int64(len(payload)) > m.maxBytes {
		return nil
	}
	start := time.Now()
	defer func() { m.metrics.observePut(start, nil, len(payload)) }()
	var evicted uint64
	m.mu.Lock()
	if el, ok := m.byKey[key]; ok {
		e := el.Value.(*memEntry)
		m.total += int64(len(payload)) - int64(len(e.payload))
		e.payload = payload
		m.order.MoveToFront(el)
	} else {
		m.byKey[key] = m.order.PushFront(&memEntry{key: key, payload: payload})
		m.total += int64(len(payload))
	}
	for m.total > m.maxBytes {
		back := m.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*memEntry)
		m.order.Remove(back)
		delete(m.byKey, e.key)
		m.total -= int64(len(e.payload))
		evicted++
	}
	m.mu.Unlock()
	if evicted > 0 {
		m.metrics.addEvictions(evicted)
	}
	return nil
}

// Delete implements Backend.
func (m *Memory) Delete(key Key) error {
	m.metrics.observeDelete()
	m.mu.Lock()
	if el, ok := m.byKey[key]; ok {
		e := el.Value.(*memEntry)
		m.order.Remove(el)
		delete(m.byKey, key)
		m.total -= int64(len(e.payload))
	}
	m.mu.Unlock()
	return nil
}

// Close implements Backend.
func (m *Memory) Close() error { return nil }
