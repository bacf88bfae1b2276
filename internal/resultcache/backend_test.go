package resultcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

func bkey(s string) Key {
	h := NewHasher("test/backend")
	h.Str(s)
	return h.Sum()
}

func TestMemoryLRUEviction(t *testing.T) {
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
	m := NewMemory(250) // room for two 100-byte entries

	for i := 0; i < 3; i++ {
		if err := m.Put(bkey(fmt.Sprintf("k%d", i)), payload(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// k0 is the LRU victim of the k2 insert.
	if _, err := m.Get(bkey("k0")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("k0 should have been evicted, got err=%v", err)
	}
	for _, k := range []string{"k1", "k2"} {
		if _, err := m.Get(bkey(k)); err != nil {
			t.Fatalf("%s should be resident: %v", k, err)
		}
	}
	if s := m.Stat(); s.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions)
	}
	if m.Len() != 2 || m.Bytes() != 200 {
		t.Fatalf("Len=%d Bytes=%d, want 2/200", m.Len(), m.Bytes())
	}
}

func TestMemoryLRUTouchOnGet(t *testing.T) {
	m := NewMemory(250)
	m.Put(bkey("a"), bytes.Repeat([]byte{1}, 100))
	m.Put(bkey("b"), bytes.Repeat([]byte{2}, 100))
	// Touch a so b becomes the LRU victim.
	if _, err := m.Get(bkey("a")); err != nil {
		t.Fatal(err)
	}
	m.Put(bkey("c"), bytes.Repeat([]byte{3}, 100))
	if _, err := m.Get(bkey("b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("b should have been evicted, got err=%v", err)
	}
	if _, err := m.Get(bkey("a")); err != nil {
		t.Fatalf("a should survive after touch: %v", err)
	}
}

func TestMemoryOversizedEntryRejected(t *testing.T) {
	m := NewMemory(50)
	m.Put(bkey("small"), []byte("x"))
	if err := m.Put(bkey("huge"), bytes.Repeat([]byte{9}, 100)); err != nil {
		t.Fatalf("oversized Put should be a quiet no-op, got %v", err)
	}
	if s := m.Stat(); s.Puts != 1 || s.BytesWritten != 1 {
		t.Fatalf("stats after rejected Put = %d puts, %d bytes written, want 1 and 1", s.Puts, s.BytesWritten)
	}
	if _, err := m.Get(bkey("huge")); !errors.Is(err, ErrNotFound) {
		t.Fatal("oversized entry must not be stored")
	}
	if _, err := m.Get(bkey("small")); err != nil {
		t.Fatal("existing entries must survive an oversized Put")
	}
}

func TestMemoryConcurrent(t *testing.T) {
	m := NewMemory(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := bkey(fmt.Sprintf("g%d-i%d", g, i%10))
				m.Put(k, []byte{byte(g), byte(i)})
				m.Get(k)
			}
		}(g)
	}
	wg.Wait()
}

func TestDiskBackendRoundTrip(t *testing.T) {
	d, err := NewDisk(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	key, want := bkey("rt"), []byte("payload")
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, want %q", got, want)
	}
	if err := d.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after Delete, err=%v, want ErrNotFound", err)
	}
	// Deleting an absent key is not an error.
	if err := d.Delete(key); err != nil {
		t.Fatalf("Delete of absent key: %v", err)
	}
}

// TestDiskVanishedEntryUnindexed removes an entry's file behind the
// store's back (as another process's eviction would): the miss must also
// drop the entry from the footprint, or the ghost keeps counting against
// the budget and later Puts evict live entries early.
func TestDiskVanishedEntryUnindexed(t *testing.T) {
	payload := []byte("12345")
	recSize := int64(len(encodeRecord(bkey("a"), payload)))
	d, err := NewDisk(DiskConfig{Dir: t.TempDir(), MaxBytes: 2 * recSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if err := d.Put(bkey(k), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(d.EntryPath(bkey("b"))); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(bkey("b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("vanished entry: err=%v, want ErrNotFound", err)
	}
	if got := d.DiskBytes(); got != recSize {
		t.Fatalf("DiskBytes = %d after the vanished entry's miss, want %d", got, recSize)
	}
	if err := d.Put(bkey("c"), payload); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(bkey("a")); err != nil {
		t.Fatalf("live entry a evicted to make room for a ghost: %v", err)
	}
	if s := d.Stat(); s.Evictions != 0 {
		t.Fatalf("Evictions = %d, want 0", s.Evictions)
	}
}
