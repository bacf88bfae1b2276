package experiments

import (
	"reflect"
	"strings"
	"testing"

	"tracerebase/internal/core"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

func openTestCache(t *testing.T) *ResultCache {
	t.Helper()
	c, err := OpenResultCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSweepConfigValidation: nonsensical configurations are rejected
// early with a clear error instead of silently producing empty
// measurement regions.
func TestSweepConfigValidation(t *testing.T) {
	profiles := []synth.Profile{synth.PublicProfile(synth.ComputeInt, 2)}
	cases := []struct {
		name string
		cfg  SweepConfig
		want string
	}{
		{"warmup == instructions", SweepConfig{Instructions: 1000, Warmup: 1000}, "empty measurement region"},
		{"warmup > instructions", SweepConfig{Instructions: 1000, Warmup: 5000}, "empty measurement region"},
		{"warmup >= defaulted instructions", SweepConfig{Warmup: 150000}, "empty measurement region"},
		{"negative parallelism", SweepConfig{Instructions: 1000, Parallelism: -1}, "negative parallelism"},
		{"negative instructions", SweepConfig{Instructions: -5}, "negative instruction count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RunSweep(profiles, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunSweep err = %v, want %q", err, tc.want)
			}
			// The other grids share RunSweep's cell engine and its checks.
			if _, err := Table3(tc.cfg, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Table3 err = %v, want %q", err, tc.want)
			}
			if _, err := FrontEndAblation(tc.cfg, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("FrontEndAblation err = %v, want %q", err, tc.want)
			}
		})
	}
	// The valid default shape still fills and runs.
	cfg := SweepConfig{Instructions: 3000, Warmup: 500, Parallelism: 2, Variants: figureVariants(VariantNone)}
	if _, err := RunSweep(profiles, cfg); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestRunSweepCachedEquivalence: a cached sweep — cold and warm, across
// fresh cache instances over one directory — returns results deeply equal
// to the uncached engine, and the warm pass computes nothing.
func TestRunSweepCachedEquivalence(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 2),
		synth.PublicProfile(synth.Crypto, 1),
	}
	cfg := SweepConfig{Instructions: 3000, Warmup: 500, Parallelism: 2,
		Variants: figureVariants(VariantNone, VariantBranch, VariantAll)}

	want, err := RunSweep(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	coldCache, err := OpenResultCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldCfg := cfg
	coldCfg.Cache = coldCache
	cold, err := RunSweep(profiles, coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, want) {
		t.Fatal("cold cached sweep differs from uncached sweep")
	}

	warmCache, err := OpenResultCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := cfg
	warmCfg.Cache = warmCache
	warm, err := RunSweep(profiles, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Fatal("warm cached sweep differs from uncached sweep")
	}
	jobs := uint64(len(profiles) * len(cfg.Variants))
	if s := warmCache.Stats(); s.Computes != 0 || s.Hits != jobs {
		t.Fatalf("warm sweep stats %+v, want 0 computes and %d hits", s, jobs)
	}
}

// TestRunSweepCachedMemoryLayer: within one process, repeating a sweep
// over the same cache instance is served entirely from memory.
func TestRunSweepCachedMemoryLayer(t *testing.T) {
	profiles := []synth.Profile{synth.PublicProfile(synth.Server, 2)}
	cfg := SweepConfig{Instructions: 2000, Warmup: 400, Parallelism: 2,
		Variants: figureVariants(VariantNone, VariantAll)}
	cache := openTestCache(t)
	cfg.Cache = cache
	first, err := RunSweep(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunSweep(profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("repeated sweep differs")
	}
	s := cache.Stats()
	jobs := uint64(len(cfg.Variants))
	if s.Computes != jobs || s.MemHits != jobs || s.DiskHits != 0 {
		t.Fatalf("stats %+v: want %d computes then %d memory hits", s, jobs, jobs)
	}
}

// TestCachedGenerationFailure: cached cells survive even when the profile
// cannot be generated — and an uncachable (failing) trace still reports
// its generation error.
func TestCachedGenerationFailure(t *testing.T) {
	bad := synth.Profile{Name: "bad"}
	cfg := SweepConfig{Instructions: 2000, Warmup: 400, Parallelism: 2,
		Variants: figureVariants(VariantNone, VariantAll)}
	cfg.Cache = openTestCache(t)
	res, err := RunSweep([]synth.Profile{bad}, cfg)
	if err == nil || !strings.Contains(err.Error(), "generate bad") {
		t.Fatalf("err = %v, want generation failure", err)
	}
	if len(res) != 1 || len(res[0].Results) != 0 {
		t.Fatalf("failed trace should deliver no results: %+v", res)
	}
	// The failure must not have been cached: a second run fails again.
	if _, err := RunSweep([]synth.Profile{bad}, cfg); err == nil {
		t.Fatal("generation failure was served from cache")
	}
}

// TestCacheKeySensitivity: the key must change when any keyed input
// changes, and must not change when nothing does.
func TestCacheKeySensitivity(t *testing.T) {
	p := synth.PublicProfile(synth.ComputeInt, 2)
	opts := core.OptionsAll()
	cfg := DevelopConfigFor(opts)
	base := CacheKey(p, opts, cfg, 150000, 50000).Key

	if again := CacheKey(p, opts, cfg, 150000, 50000).Key; again != base {
		t.Fatal("identical inputs produced different keys")
	}

	p2 := p
	p2.Seed++
	otherOpts := core.OptionsMemory()
	ipc1 := sim.ConfigIPC1("epi", rulesFor(opts))
	tweaked := cfg
	tweaked.ROBSize++
	variants := map[string]string{
		"profile seed": CacheKey(p2, opts, cfg, 150000, 50000).Key,
		"options":      CacheKey(p, otherOpts, DevelopConfigFor(otherOpts), 150000, 50000).Key,
		"sim model":    CacheKey(p, opts, ipc1, 150000, 50000).Key,
		"config param": CacheKey(p, opts, tweaked, 150000, 50000).Key,
		"instructions": CacheKey(p, opts, cfg, 100000, 50000).Key,
		"warmup":       CacheKey(p, opts, cfg, 150000, 40000).Key,
	}
	seen := map[string]string{base: "base"}
	for name, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s key collides with %s", name, prev)
		}
		seen[k] = name
	}
	// Component hashes isolate what changed.
	i1 := CacheKey(p, opts, cfg, 150000, 50000)
	i2 := CacheKey(p2, opts, cfg, 150000, 50000)
	if i1.ProfileHash == i2.ProfileHash {
		t.Fatal("profile hash insensitive to seed")
	}
	if i1.OptionsHash != i2.OptionsHash || i1.ConfigHash != i2.ConfigHash {
		t.Fatal("unrelated component hashes changed")
	}
}

// TestTable3Cached: Table3's cache integration returns results identical
// to the uncached path, warm from a fresh instance with zero computes.
func TestTable3Cached(t *testing.T) {
	suite := []synth.IPC1Trace{synth.IPC1Suite()[0]}
	cfg := SweepConfig{Instructions: 2000, Warmup: 400, Parallelism: 1}

	want, err := Table3(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	coldCache, err := OpenResultCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldCfg := cfg
	coldCfg.Cache = coldCache
	cold, err := Table3(coldCfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, want) {
		t.Fatal("cold cached Table3 differs from uncached")
	}
	warmCache, err := OpenResultCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := cfg
	warmCfg.Cache = warmCache
	warm, err := Table3(warmCfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Fatal("warm cached Table3 differs from uncached")
	}
	// 2 sets x (1 baseline + 8 prefetchers) per trace.
	jobs := uint64(len(suite) * 2 * (1 + len(Table3Prefetchers)))
	if s := warmCache.Stats(); s.Computes != 0 || s.Hits != jobs {
		t.Fatalf("warm Table3 stats %+v, want 0 computes and %d hits", s, jobs)
	}
}
