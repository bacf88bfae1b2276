package conformance

import (
	"bytes"
	"fmt"
	"os"
	"reflect"

	"tracerebase/internal/experiments"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/synth"
)

// CheckTierTransparency is the differential oracle for the tiered cache
// backend: no tier composition may be visible in the output. It runs the
// same sweep four ways — cache off, cold tiered (memory+disk), warm
// memory tier (a fresh cache over the same backend, modelling a repeat
// query against a live daemon), and warm disk tier (a brand-new
// memory+disk stack over the same directory, modelling a daemon restart)
// — and requires byte-identical rendered output from all of them. It also
// asserts the tiers behaved as claimed: both warm runs resolve every cell
// with zero compute-function invocations (so no generation, conversion,
// or simulation happens), the warm-memory run is answered by the memory
// tier, and the warm-disk run reads every cell from disk and promotes it
// into its new memory tier. The warm-disk stack is opened before the
// first stack is closed, so it passes only if Put wrote through to disk.
func CheckTierTransparency(profiles []synth.Profile, instructions int, warmup uint64) error {
	dirA, err := os.MkdirTemp("", "tracerebase-tiercheck-a-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dirA)

	baseCfg := experiments.SweepConfig{
		Instructions: instructions,
		Warmup:       warmup,
		Parallelism:  2,
	}
	render := func(res []experiments.TraceResult) []byte {
		var buf bytes.Buffer
		experiments.RenderFig1(&buf, experiments.Fig1(res))
		experiments.RenderFig5(&buf, experiments.Fig5(res))
		return buf.Bytes()
	}
	sweep := func(cache *experiments.ResultCache) ([]byte, []experiments.TraceResult, error) {
		cfg := baseCfg
		cfg.Cache = cache
		res, err := experiments.RunSweep(profiles, cfg)
		if err != nil {
			return nil, nil, err
		}
		return render(res), res, nil
	}
	jobs := uint64(len(profiles) * len(experiments.Variants()))

	// Off: the reference bytes.
	want, wantRes, err := sweep(nil)
	if err != nil {
		return fmt.Errorf("uncached sweep: %w", err)
	}

	// Cold tiered stack A: memory LRU in front of disk.
	memA := resultcache.NewMemory(0)
	diskA, err := resultcache.NewDisk(resultcache.DiskConfig{Dir: dirA})
	if err != nil {
		return err
	}
	backendA := resultcache.NewTiered(memA, diskA)
	defer backendA.Close()
	cold := experiments.NewResultCache(backendA)
	coldOut, coldRes, err := sweep(cold)
	if err != nil {
		return fmt.Errorf("cold tiered sweep: %w", err)
	}
	if !bytes.Equal(coldOut, want) {
		return fmt.Errorf("cold tiered sweep output differs from uncached output")
	}
	if !reflect.DeepEqual(coldRes, wantRes) {
		return fmt.Errorf("cold tiered sweep results differ structurally from uncached results")
	}
	if s := cold.Stats(); s.Computes != jobs || s.Hits != 0 {
		return fmt.Errorf("cold tiered cache computed %d cells with %d hits, want %d computes and 0 hits", s.Computes, s.Hits, jobs)
	}

	// Warm memory tier: a fresh cache over the same backend stands in for
	// a repeat query against a live daemon — every cell must come from the
	// memory tier without recomputation.
	memBefore := memA.Stat()
	warmMem := experiments.NewResultCache(backendA)
	warmMemOut, warmMemRes, err := sweep(warmMem)
	if err != nil {
		return fmt.Errorf("warm-memory sweep: %w", err)
	}
	if !bytes.Equal(warmMemOut, want) {
		return fmt.Errorf("warm-memory sweep output differs from uncached output")
	}
	if !reflect.DeepEqual(warmMemRes, wantRes) {
		return fmt.Errorf("warm-memory sweep results differ structurally from uncached results")
	}
	if s := warmMem.Stats(); s.Computes != 0 || s.DiskHits != jobs {
		return fmt.Errorf("warm-memory run: %d computes, %d backend hits, want 0 and %d", s.Computes, s.DiskHits, jobs)
	}
	if d := memA.Stat().Hits - memBefore.Hits; d != jobs {
		return fmt.Errorf("warm-memory run: memory tier answered %d of %d lookups", d, jobs)
	}

	// Warm disk tier: a fresh memory tier over a fresh disk backend on
	// dirA, built while stack A is still open and unflushed — a restarted
	// daemon. Every cell must come from disk, recompute nothing, and be
	// promoted into the new memory tier.
	diskB, err := resultcache.NewDisk(resultcache.DiskConfig{Dir: dirA})
	if err != nil {
		return err
	}
	memB := resultcache.NewMemory(0)
	backendB := resultcache.NewTiered(memB, diskB)
	defer backendB.Close()
	warmDisk := experiments.NewResultCache(backendB)
	warmDiskOut, warmDiskRes, err := sweep(warmDisk)
	if err != nil {
		return fmt.Errorf("warm-disk sweep: %w", err)
	}
	if !bytes.Equal(warmDiskOut, want) {
		return fmt.Errorf("warm-disk sweep output differs from uncached output")
	}
	if !reflect.DeepEqual(warmDiskRes, wantRes) {
		return fmt.Errorf("warm-disk sweep results differ structurally from uncached results")
	}
	if s := warmDisk.Stats(); s.Computes != 0 || s.DiskHits != jobs {
		return fmt.Errorf("warm-disk run: %d computes, %d backend hits, want 0 and %d", s.Computes, s.DiskHits, jobs)
	}
	if s := diskB.Stat(); s.Hits != jobs {
		return fmt.Errorf("warm-disk run: disk tier served %d of %d cells", s.Hits, jobs)
	}
	if s := memB.Stat(); s.Puts != jobs {
		return fmt.Errorf("warm-disk run: %d of %d cells promoted into the new memory tier", s.Puts, jobs)
	}
	return nil
}
