package conformance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"tracerebase/internal/experiments"
	"tracerebase/internal/expstore"
	"tracerebase/internal/synth"
)

// CheckExpStoreTransparency is the differential oracle for the columnar
// experiment store: the store must be invisible in the output. It runs the
// same sweep four ways — store-off, cold store (every cell appended, then
// read back from the in-memory index), warm store (a fresh Store over the
// same directory, modelling a second process: every cell is decoded from
// its block and every offered cell deduplicated), and warm store with one
// block corrupted on disk — and requires byte-identical rendered output
// (and structurally identical results) from all of them. The corrupted
// block must be caught by checksum when the index loads, discarded with a
// pointed warning, never served and never a crash; the same run then
// re-appends exactly the lost cells, and a repair run finds them all on
// disk. Finally, queries over the index must return the same rows as a
// full scan that decodes every block from disk.
func CheckExpStoreTransparency(profiles []synth.Profile, instructions int, warmup uint64) error {
	dir, err := os.MkdirTemp("", "tracerebase-expcheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	baseCfg := experiments.SweepConfig{
		Instructions: instructions,
		Warmup:       warmup,
		Parallelism:  2,
		Variants:     nil, // all ten: one cell per (trace, variant)
	}
	render := func(res []experiments.TraceResult) []byte {
		var buf bytes.Buffer
		experiments.RenderFig1(&buf, experiments.Fig1(res))
		experiments.RenderFig4(&buf, experiments.Fig4(res))
		experiments.RenderFig5(&buf, experiments.Fig5(res))
		return buf.Bytes()
	}
	sweep := func(store *expstore.Store, misses *int) ([]byte, []experiments.TraceResult, error) {
		cfg := baseCfg
		cfg.Exp = store
		if misses != nil {
			cfg.ExpMisses = func(n int) { *misses += n }
		}
		res, err := experiments.RunSweep(profiles, cfg)
		if err != nil {
			return nil, nil, err
		}
		return render(res), res, nil
	}
	open := func(warn func(string, ...any)) (*expstore.Store, error) {
		// Small blocks so the sweep spans several and one can be damaged
		// without losing everything.
		return expstore.Open(expstore.Config{Dir: dir, BlockCells: 4, Warn: warn})
	}

	want, wantRes, err := sweep(nil, nil)
	if err != nil {
		return fmt.Errorf("store-off sweep: %w", err)
	}

	jobs := uint64(len(profiles) * len(experiments.Variants()))
	cold, err := open(nil)
	if err != nil {
		return err
	}
	misses := 0
	coldOut, coldRes, err := sweep(cold, &misses)
	// Read-back does not flush, so the counters are read after Close.
	cold.Close()
	coldStats := cold.Stats()
	if err != nil {
		return fmt.Errorf("cold-store sweep: %w", err)
	}
	if !bytes.Equal(coldOut, want) {
		return fmt.Errorf("cold-store sweep output differs from store-off output")
	}
	if !reflect.DeepEqual(coldRes, wantRes) {
		return fmt.Errorf("cold-store sweep results differ structurally from store-off results")
	}
	if misses != 0 {
		return fmt.Errorf("cold store missed %d cells on read-back, want 0", misses)
	}
	if coldStats.Appends != jobs || coldStats.DupSkipped != 0 || coldStats.CellsWritten != jobs {
		return fmt.Errorf("cold store: %d appends, %d dups, %d cells written, want %d, 0, %d",
			coldStats.Appends, coldStats.DupSkipped, coldStats.CellsWritten, jobs, jobs)
	}

	// A fresh Store over the same directory stands in for a second process:
	// every offered cell deduplicates against disk, nothing is rewritten.
	warm, err := open(nil)
	if err != nil {
		return err
	}
	misses = 0
	warmOut, warmRes, err := sweep(warm, &misses)
	warmStats := warm.Stats()
	warm.Close()
	if err != nil {
		return fmt.Errorf("warm-store sweep: %w", err)
	}
	if !bytes.Equal(warmOut, want) {
		return fmt.Errorf("warm-store sweep output differs from store-off output")
	}
	if !reflect.DeepEqual(warmRes, wantRes) {
		return fmt.Errorf("warm-store sweep results differ structurally from store-off results")
	}
	if misses != 0 {
		return fmt.Errorf("warm store missed %d cells on read-back, want 0", misses)
	}
	if warmStats.DupSkipped != jobs || warmStats.BlocksWritten != 0 {
		return fmt.Errorf("warm store: %d dups, %d blocks written, want %d and 0",
			warmStats.DupSkipped, warmStats.BlocksWritten, jobs)
	}

	// Corrupt one block mid-data (the byte just below the footer is always
	// inside the checksummed column data) and re-run with a fresh Store.
	// The damage must be caught by checksum when the index loads and
	// warned about; the block's cells are then missing from the index, so
	// the same run re-appends them and reads them back.
	victim, lostCells, err := corruptOneBlock(dir)
	if err != nil {
		return err
	}
	var warns warnLog
	hurt, err := open(warns.warnf)
	if err != nil {
		return err
	}
	misses = 0
	hurtOut, _, err := sweep(hurt, &misses)
	hurt.Close()
	hurtStats := hurt.Stats()
	if err != nil {
		return fmt.Errorf("sweep over corrupted block: %w", err)
	}
	if !bytes.Equal(hurtOut, want) {
		return fmt.Errorf("corrupted block leaked into the output")
	}
	if hurtStats.Corrupt != 1 || misses != 0 || hurtStats.CellsWritten != uint64(lostCells) {
		return fmt.Errorf("corrupted-block run: %d corrupt, %d misses, %d cells written, want 1, 0 and %d",
			hurtStats.Corrupt, misses, hurtStats.CellsWritten, lostCells)
	}
	if w := warns.String(); !strings.Contains(w, "corrupt block") {
		return fmt.Errorf("corrupted-block run produced no pointed warning (got %q)", w)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		return fmt.Errorf("corrupt block %s was not removed", victim)
	}

	// The re-appended cells are on disk: the next sweep finds every cell.
	repair, err := open(nil)
	if err != nil {
		return err
	}
	misses = 0
	repairOut, _, err := sweep(repair, &misses)
	repairStats := repair.Stats()
	queryErr := checkQueryAgainstFullScan(repair)
	repair.Close()
	if err != nil {
		return fmt.Errorf("repair sweep: %w", err)
	}
	if !bytes.Equal(repairOut, want) {
		return fmt.Errorf("repair sweep output differs from store-off output")
	}
	if misses != 0 {
		return fmt.Errorf("repair sweep missed %d cells on read-back, want 0", misses)
	}
	if repairStats.CellsWritten != 0 || repairStats.DupSkipped != jobs {
		return fmt.Errorf("repair sweep: %d cells written, %d dups, want 0 and %d",
			repairStats.CellsWritten, repairStats.DupSkipped, jobs)
	}
	return queryErr
}

// checkQueryAgainstFullScan asserts that queries over the in-memory index
// return the same rows as a full scan that decodes every block from disk.
func checkQueryAgainstFullScan(store *expstore.Store) error {
	for _, src := range []string{
		"group-by=category stat=count,mean,p99",
		"variant=All_imps,No_imp group-by=variant stat=geomean",
		"category=srv metric=l1i_misses stat=sum,max",
	} {
		q, err := expstore.ParseQuery(src)
		if err != nil {
			return err
		}
		index, err := store.Query(q)
		if err != nil {
			return fmt.Errorf("query %q: %w", src, err)
		}
		full, err := store.FullScan(q)
		if err != nil {
			return fmt.Errorf("full scan %q: %w", src, err)
		}
		if !reflect.DeepEqual(index.Rows, full.Rows) {
			return fmt.Errorf("query %q: index rows %+v differ from full scan %+v", src, index.Rows, full.Rows)
		}
	}
	return nil
}

// corruptOneBlock flips a data byte in one block file under dir and
// returns the victim path and its cell count (read from the header before
// the damage).
func corruptOneBlock(dir string) (string, int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.expb"))
	if err != nil {
		return "", 0, err
	}
	if len(matches) == 0 {
		return "", 0, fmt.Errorf("no block files found under %s", dir)
	}
	victim := matches[0]
	buf, err := os.ReadFile(victim)
	if err != nil {
		return "", 0, err
	}
	cells := int(binary.LittleEndian.Uint64(buf[40:48]))
	footerOff := binary.LittleEndian.Uint64(buf[48:56])
	buf[footerOff-1] ^= 0xff
	return victim, cells, os.WriteFile(victim, buf, 0o644)
}
