package resultcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestTieredReadThroughPromotion(t *testing.T) {
	mem := NewMemory(0)
	disk, err := NewDisk(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(mem, disk)
	defer tiered.Close()

	key, want := bkey("promote"), []byte("warm me up")
	// Seed only the slow tier, as if written by an earlier process.
	if err := disk.Put(key, want); err != nil {
		t.Fatal(err)
	}

	got, src, err := tiered.GetWithSource(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || src != "disk" {
		t.Fatalf("first read = %q from %q, want %q from disk", got, src, want)
	}
	// The hit must have been promoted into the memory tier.
	if _, src, err = tiered.GetWithSource(key); err != nil || src != "memory" {
		t.Fatalf("second read src=%q err=%v, want memory hit", src, err)
	}
	if _, err := mem.Get(key); err != nil {
		t.Fatal("promotion should have populated the memory tier")
	}
}

func TestTieredPutWritesThrough(t *testing.T) {
	mem := NewMemory(0)
	disk, err := NewDisk(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(mem, disk)
	defer tiered.Close()

	key, want := bkey("writethrough"), []byte("durable")
	if err := tiered.Put(key, want); err != nil {
		t.Fatal(err)
	}
	// Both tiers hold the entry as soon as Put returns: no Close, no flush.
	if _, err := mem.Get(key); err != nil {
		t.Fatalf("memory tier after Put: %v", err)
	}
	got, err := disk.Get(key)
	if err != nil {
		t.Fatalf("disk tier after Put: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("disk payload = %q, want %q", got, want)
	}

	// A failing slow tier surfaces its error and counts it itself. The
	// disk root replaced by a regular file makes every publish fail.
	brokenDir := filepath.Join(t.TempDir(), "cache")
	broken, err := NewDisk(DiskConfig{Dir: brokenDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(brokenDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(brokenDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	failing := NewTiered(NewMemory(0), broken)
	if err := failing.Put(key, want); err == nil {
		t.Fatal("Put over a failing slow tier returned nil")
	}
	if s := broken.Stat(); s.WriteErrors != 1 {
		t.Fatalf("slow tier WriteErrors = %d, want 1", s.WriteErrors)
	}
	if s := failing.Stat(); s.WriteErrors != 1 {
		t.Fatalf("tiered WriteErrors = %d, want 1", s.WriteErrors)
	}
}

func TestTieredMissReadsAllTiers(t *testing.T) {
	mem := NewMemory(0)
	disk, err := NewDisk(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(mem, disk)
	defer tiered.Close()

	if _, err := tiered.Get(bkey("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss: err=%v, want ErrNotFound", err)
	}
	tiers := tiered.Tiers()
	if len(tiers) != 2 || tiers[0].Name != "memory" || tiers[1].Name != "disk" {
		t.Fatalf("Tiers() = %+v", tiers)
	}
	if tiers[0].Misses != 1 || tiers[1].Misses != 1 {
		t.Fatalf("both tiers should record the miss: %+v", tiers)
	}
}

func TestCacheOverTieredBackendSingleFlight(t *testing.T) {
	mem := NewMemory(0)
	disk, err := NewDisk(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c := New[int](NewTiered(mem, disk), GobCodec[int]{})
	defer c.Close()

	key := bkey("singleflight-tiered")
	var computes int
	var mu sync.Mutex
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := c.GetOrCompute(key, func() (int, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computes = %d, want 1 (single-flight across tiers)", computes)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("results[%d] = %d, want 42", i, v)
		}
	}
	s := c.Stats()
	if s.Computes != 1 {
		t.Fatalf("Stats.Computes = %d, want 1", s.Computes)
	}
}

func TestCacheStatsSumTierCounters(t *testing.T) {
	mem := NewMemory(150) // small enough to force memory evictions
	disk, err := NewDisk(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c := New[[]byte](NewTiered(mem, disk), GobCodec[[]byte]{})
	defer c.Close()

	for i := 0; i < 4; i++ {
		k := bkey(fmt.Sprintf("sum-%d", i))
		if _, err := c.GetOrCompute(k, func() ([]byte, error) {
			return bytes.Repeat([]byte{byte(i)}, 100), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("Stats should surface memory-tier evictions, got %+v", s)
	}
	tiers := c.TierStats()
	if len(tiers) != 2 {
		t.Fatalf("TierStats len = %d, want 2", len(tiers))
	}
	if tiers[0].Puts == 0 || tiers[1].Puts == 0 {
		t.Fatalf("both tiers should have Puts: %+v", tiers)
	}
}
