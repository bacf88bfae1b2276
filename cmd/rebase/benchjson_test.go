package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchJSONStoreBlocks runs a tiny sweep with -bench-json over fresh
// stores and checks that the cache, trace_store and exp_store blocks carry
// every key earlier BENCH files recorded, so the JSON stays comparable
// across revisions.
func TestBenchJSONStoreBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the rebase binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rebase")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	benchPath := filepath.Join(dir, "bench.json")
	cmd := exec.Command(bin, "-exp", "fig1", "-step", "27", "-instructions", "4000", "-warmup", "1000",
		"-cache-dir", filepath.Join(dir, "cache"), "-bench-json", benchPath, "-q")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("rebase: %v\n%s", err, out)
	}
	data, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"cache":       {"hits", "mem_hits", "disk_hits", "misses", "corrupt", "evictions", "bytes_read", "bytes_written"},
		"trace_store": {"hits", "mem_hits", "disk_hits", "misses", "converts", "prefetches", "corrupt", "evictions", "write_errors", "bytes_mapped", "bytes_written"},
		"exp_store":   {"appends", "dup_skipped", "blocks_written", "cells_written", "compactions", "corrupt", "foreign", "bytes_written"},
	}
	for block, keys := range want {
		var fields map[string]any
		if err := json.Unmarshal(rec[block], &fields); err != nil {
			t.Fatalf("block %q: %v\n%s", block, err, data)
		}
		for _, k := range keys {
			if _, ok := fields[k].(float64); !ok {
				t.Errorf("block %q: key %q missing or not a number\n%s", block, k, data)
			}
		}
	}
	// A cold run over empty stores computes, converts and appends, and
	// the record counts the appended cells as written even under -q.
	var counts struct {
		Cache      struct{ Misses uint64 }
		TraceStore struct{ Converts uint64 } `json:"trace_store"`
		ExpStore   struct {
			Appends      uint64
			CellsWritten uint64 `json:"cells_written"`
		} `json:"exp_store"`
	}
	if err := json.Unmarshal(data, &counts); err != nil {
		t.Fatal(err)
	}
	if counts.Cache.Misses == 0 || counts.TraceStore.Converts == 0 ||
		counts.ExpStore.Appends != counts.Cache.Misses || counts.ExpStore.CellsWritten != counts.ExpStore.Appends {
		t.Errorf("cold run counters %+v: want misses > 0, converts > 0, appends == misses == cells written", counts)
	}
}
