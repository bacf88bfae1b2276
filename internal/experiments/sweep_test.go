package experiments

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tracerebase/internal/synth"
)

// TestRunSweepDeterminism: the work-queue sweep produces bit-identical
// TraceResults regardless of worker count — serial and 4-way parallel runs
// must agree on every field of every result.
func TestRunSweepDeterminism(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 2),
		synth.PublicProfile(synth.Crypto, 1),
		synth.PublicProfile(synth.Server, 3),
	}
	cfg := testSweepConfig()
	cfg.Variants = figureVariants(VariantNone, VariantBranch, VariantAll)

	serial := cfg
	serial.Parallelism = 1
	a, err := RunSweep(profiles, serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := cfg
	parallel.Parallelism = 4
	b, err := RunSweep(profiles, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("parallel sweep differs from serial sweep")
	}
}

// TestRunSweepErrorAggregation: failing traces contribute their errors to
// one joined error while healthy traces still deliver full results.
func TestRunSweepErrorAggregation(t *testing.T) {
	bad1 := synth.Profile{Name: "bad1"} // zero profile fails Validate
	bad2 := synth.Profile{Name: "bad2"}
	good := synth.PublicProfile(synth.ComputeInt, 2)
	cfg := testSweepConfig()
	cfg.Variants = figureVariants(VariantNone, VariantAll)

	res, err := RunSweep([]synth.Profile{bad1, good, bad2}, cfg)
	if err == nil {
		t.Fatal("RunSweep returned nil error for invalid profiles")
	}
	// Both failures must be present in the joined error, once each.
	msg := err.Error()
	if strings.Count(msg, "generate bad1") != 1 || strings.Count(msg, "generate bad2") != 1 {
		t.Fatalf("joined error should name each failing trace once: %q", msg)
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("error is not a joined error: %T", err)
	}
	if n := len(joined.Unwrap()); n != 2 {
		t.Fatalf("joined error holds %d errors, want 2", n)
	}
	// Partial results: slots align with profiles, the healthy trace is
	// complete, the failed ones carry empty result maps.
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if len(res[0].Results) != 0 || len(res[2].Results) != 0 {
		t.Error("failed traces should have empty Results")
	}
	if len(res[1].Results) != len(cfg.Variants) {
		t.Fatalf("healthy trace has %d results, want %d", len(res[1].Results), len(cfg.Variants))
	}
	if res[1].Results[VariantAll].IPC <= 0 {
		t.Error("healthy trace result looks empty")
	}
}

// TestRunSweepProgress: Progress fires once per trace with a distinct done
// count, and the callback may itself block briefly without deadlocking the
// sweep (it holds only the progress lock, never the work queue).
func TestRunSweepProgress(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 2),
		synth.PublicProfile(synth.Crypto, 1),
	}
	cfg := testSweepConfig()
	cfg.Variants = figureVariants(VariantNone)
	cfg.Parallelism = 2

	var mu sync.Mutex
	seen := map[int]bool{}
	cfg.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != len(profiles) {
			t.Errorf("Progress total = %d, want %d", total, len(profiles))
		}
		if seen[done] {
			t.Errorf("Progress fired twice with done=%d", done)
		}
		seen[done] = true
	}
	if _, err := RunSweep(profiles, cfg); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(profiles) || !seen[1] || !seen[2] {
		t.Fatalf("Progress counts seen: %v", seen)
	}
}

// TestRunSweepProgressOrder: with many workers finishing traces at once,
// Progress still reports done counts in strictly increasing order, ending
// at total — the CLI prints its final newline on done == total, so a late
// smaller count would overwrite it.
func TestRunSweepProgressOrder(t *testing.T) {
	var profiles []synth.Profile
	for _, cat := range []synth.Category{synth.ComputeInt, synth.Crypto, synth.Server} {
		for i := 1; i <= 2; i++ {
			profiles = append(profiles, synth.PublicProfile(cat, i))
		}
	}
	cfg := SweepConfig{Instructions: 3000, Warmup: 500, Parallelism: 4,
		Variants: figureVariants(VariantNone)}

	var mu sync.Mutex
	var counts []int
	cfg.Progress = func(done, total int) {
		if total != len(profiles) {
			t.Errorf("Progress total = %d, want %d", total, len(profiles))
		}
		mu.Lock()
		counts = append(counts, done)
		mu.Unlock()
	}
	if _, err := RunSweep(profiles, cfg); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Fatalf("Progress counts not strictly increasing: %v", counts)
		}
	}
	if len(counts) == 0 || counts[len(counts)-1] != len(profiles) {
		t.Fatalf("Progress counts %v do not end at %d", counts, len(profiles))
	}
}
