package expstore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"tracerebase/internal/frame"
)

// Config configures a Store. The zero value plus Dir is usable.
type Config struct {
	// Dir is the store directory; block files live directly in it.
	Dir string
	// BlockCells is the append-buffer flush threshold: a block is written
	// once this many cells accumulate (or on Flush/Close). Blocks smaller
	// than this are compaction candidates. Default 256.
	BlockCells int
	// Warn receives diagnostics for corrupt blocks and write failures;
	// nil discards them.
	Warn func(format string, args ...any)
}

// compactTrigger is the number of undersized blocks at which Flush
// rewrites them as full ones.
const compactTrigger = 8

// Stats are the store's observability counters, all cumulative since Open.
type Stats struct {
	// Appends is cells offered; DupSkipped of those were already present
	// (on disk or pending) under the same content key and were dropped.
	Appends    uint64 `json:"appends"`
	DupSkipped uint64 `json:"dup_skipped"`
	// BlocksWritten / CellsWritten / BytesWritten cover both fresh flushes
	// and compaction outputs.
	BlocksWritten uint64 `json:"blocks_written"`
	CellsWritten  uint64 `json:"cells_written"`
	BytesWritten  uint64 `json:"bytes_written"`
	// Compactions counts merge passes; BlocksCompacted the inputs retired.
	Compactions     uint64 `json:"compactions"`
	BlocksCompacted uint64 `json:"blocks_compacted"`
	// Corrupt blocks were removed (their cells return on the next sweep);
	// Foreign blocks (other format or schema) are skipped but kept.
	Corrupt uint64 `json:"corrupt"`
	Foreign uint64 `json:"foreign"`
	// WriteErrors counts failed block writes. Appends degrade gracefully:
	// the index still serves the cells to this process, but they are not
	// persisted.
	WriteErrors uint64 `json:"write_errors"`
}

// blockRef is one serveable block file, as its header describes it.
type blockRef struct {
	path  string
	seq   int
	gen   int
	size  int64
	cells int
}

// Store is an append-only store of experiment cells backed by block files
// in one directory. All methods are safe for concurrent use.
type Store struct {
	cfg Config

	mu      sync.Mutex
	blocks  []*blockRef // serveable blocks in (seq, gen) order
	nextSeq int
	// cells is the index: the first cell seen for each content key, disk
	// cells first, then appends in order. byKey maps a key to its
	// position, and cells[flushed:] are the appends not yet written.
	// Both are nil until the first Append, Cells or Query loads them.
	cells   []Cell
	byKey   map[Key]int
	flushed int
	stats   Stats
	closed  bool
}

func blockName(seq, gen int) string {
	return fmt.Sprintf("b%08d-g%04d.expb", seq, gen)
}

func parseBlockName(name string) (seq, gen int, ok bool) {
	var tail string
	if n, err := fmt.Sscanf(name, "b%08d-g%04d%s", &seq, &gen, &tail); err != nil || n != 3 || tail != ".expb" {
		return 0, 0, false
	}
	return seq, gen, true
}

// Open scans dir (created if missing) for block files, removing temp-file
// leftovers and corrupt headers. It reads only block headers; the index
// is loaded on first use.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("expstore: empty directory")
	}
	if cfg.BlockCells <= 0 {
		cfg.BlockCells = 256
	}
	if cfg.Warn == nil {
		cfg.Warn = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("expstore: %w", err)
	}
	s := &Store{cfg: cfg}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("expstore: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, "tmp-") {
			os.Remove(filepath.Join(cfg.Dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".expb") {
			continue
		}
		path := filepath.Join(cfg.Dir, name)
		seq, gen, ok := parseBlockName(name)
		if !ok {
			// Not ours to judge; leave it alone but don't serve it.
			s.cfg.Warn("expstore: ignoring unrecognized file %s", path)
			continue
		}
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
		ref := &blockRef{path: path, seq: seq, gen: gen}
		switch s.classify(ref) {
		case blockOK:
			s.blocks = append(s.blocks, ref)
		case blockForeign:
			s.stats.Foreign++
		case blockCorrupt:
			s.dropCorrupt(ref.path, fmt.Errorf("header validation failed"))
		}
	}
	sort.Slice(s.blocks, func(i, j int) bool {
		if s.blocks[i].seq != s.blocks[j].seq {
			return s.blocks[i].seq < s.blocks[j].seq
		}
		return s.blocks[i].gen < s.blocks[j].gen
	})
	return s, nil
}

// classify reads just the header to sort a file into the
// OK/Corrupt/Foreign trichotomy, filling in ref's size and cell count.
func (s *Store) classify(ref *blockRef) blockVerdict {
	f, err := os.Open(ref.path)
	if err != nil {
		return blockCorrupt
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return blockCorrupt
	}
	buf := make([]byte, blockHeaderSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return blockCorrupt
	}
	h, v := parseBlockHeader(buf, info.Size())
	ref.size, ref.cells = info.Size(), h.cells
	return v
}

// dropCorrupt removes a damaged block file: its cells were lost, but they
// reconvert — the next sweep recomputes and re-appends them.
func (s *Store) dropCorrupt(path string, err error) {
	s.stats.Corrupt++
	s.cfg.Warn("expstore: removing corrupt block %s: %v", path, err)
	os.Remove(path)
}

// readLocked reads and decodes one block file. A damaged block is dropped
// from the store; a vanished (compacted by another process) or foreign
// one is skipped. mu is held.
func (s *Store) readLocked(ref *blockRef) ([]Cell, bool) {
	buf, err := os.ReadFile(ref.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.removeRefLocked(ref)
		}
		return nil, false
	}
	cells, err := DecodeBlock(buf)
	if errors.Is(err, frame.ErrCorrupt) {
		s.dropCorrupt(ref.path, err)
		s.removeRefLocked(ref)
	}
	return cells, err == nil
}

// scanLocked reads every serveable block in (seq, gen) order, handing
// each one's cells to fn, and returns the bytes read. mu is held.
func (s *Store) scanLocked(fn func([]Cell)) int64 {
	var read int64
	for _, ref := range append([]*blockRef(nil), s.blocks...) {
		if cells, ok := s.readLocked(ref); ok {
			read += ref.size
			fn(cells)
		}
	}
	return read
}

// loadLocked builds the index on first use, keeping the first cell for
// each key: duplicates (crash leftovers of a compaction, or concurrent
// writers) carry identical values, since the engine is deterministic. It
// returns the bytes read and the duplicates dropped. mu is held.
func (s *Store) loadLocked() (read int64, dups int) {
	if s.byKey != nil {
		return 0, 0
	}
	n := 0
	for _, b := range s.blocks {
		n += b.cells
	}
	s.cells = make([]Cell, 0, n)
	s.byKey = make(map[Key]int, n)
	read = s.scanLocked(func(cells []Cell) {
		for i := range cells {
			if _, dup := s.byKey[cells[i].Key]; dup {
				dups++
				continue
			}
			s.byKey[cells[i].Key] = len(s.cells)
			s.cells = append(s.cells, cells[i])
		}
	})
	s.flushed = len(s.cells)
	return read, dups
}

// removeRefLocked drops ref from the block list (mu held).
func (s *Store) removeRefLocked(ref *blockRef) {
	for i, b := range s.blocks {
		if b == ref {
			s.blocks = append(s.blocks[:i], s.blocks[i+1:]...)
			return
		}
	}
}

// Append offers one cell. Cells already present under the same content key
// (on disk or pending) are dropped — the engine is deterministic, so a
// duplicate key is a duplicate cell. A block is written once BlockCells
// new cells accumulate.
func (s *Store) Append(cell Cell) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("expstore: store closed")
	}
	s.loadLocked()
	s.stats.Appends++
	if _, dup := s.byKey[cell.Key]; dup {
		s.stats.DupSkipped++
		return nil
	}
	s.byKey[cell.Key] = len(s.cells)
	s.cells = append(s.cells, cell)
	if len(s.cells)-s.flushed >= s.cfg.BlockCells {
		return s.flushLocked()
	}
	return nil
}

// Flush writes the pending cells as a block. Once compactTrigger blocks
// are undersized, it then rewrites those as full blocks.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cells) == s.flushed {
		return nil
	}
	err := s.flushLocked()
	s.compactLocked()
	return err
}

// flushLocked writes cells[flushed:] as one block (mu held). On a write
// failure the cells stay in the index, so this process still serves
// them, and a later process re-appends them.
func (s *Store) flushLocked() error {
	cells := s.cells[s.flushed:]
	s.flushed = len(s.cells)
	ref, err := s.writeBlockLocked(cells, 0, 0, true)
	if err != nil {
		s.stats.WriteErrors++
		s.cfg.Warn("expstore: block write failed, %d cells not persisted: %v", len(cells), err)
		return err
	}
	s.insertRefLocked(ref)
	return nil
}

// compactLocked merges the undersized blocks into full ones once there
// are compactTrigger of them (mu held). The cell multiset is preserved
// exactly. The outputs are published before the inputs are removed, so a
// crash in between leaves only duplicate cells, which the next index load
// drops keep-first.
func (s *Store) compactLocked() {
	var undersized []*blockRef
	for _, b := range s.blocks {
		if b.cells < s.cfg.BlockCells {
			undersized = append(undersized, b)
		}
	}
	if len(undersized) < compactTrigger {
		return
	}
	var inputs []*blockRef
	var cells []Cell
	gen := 0
	for _, ref := range undersized {
		if cs, ok := s.readLocked(ref); ok {
			inputs = append(inputs, ref)
			cells = append(cells, cs...)
			gen = max(gen, ref.gen)
		}
	}
	if len(inputs) == 0 {
		return
	}
	seq := inputs[0].seq
	var outs []*blockRef
	for len(cells) > 0 {
		n := min(len(cells), s.cfg.BlockCells)
		gen++
		ref, err := s.writeBlockLocked(cells[:n], seq, gen, false)
		if err != nil {
			s.stats.WriteErrors++
			s.cfg.Warn("expstore: compaction write failed: %v", err)
			for _, o := range outs {
				os.Remove(o.path)
			}
			return
		}
		outs = append(outs, ref)
		gen = ref.gen
		cells = cells[n:]
	}
	s.stats.Compactions++
	s.stats.BlocksCompacted += uint64(len(inputs))
	for _, ref := range inputs {
		s.removeRefLocked(ref)
		os.Remove(ref.path)
	}
	for _, ref := range outs {
		s.insertRefLocked(ref)
	}
}

// writeBlockLocked encodes cells and publishes the file under an unused
// (seq, gen) name via link-into-place, so two processes appending to the
// same directory cannot silently overwrite each other's blocks. Fresh
// flushes pass bumpSeq and allocate the next sequence number; compaction
// keeps its first input's sequence and bumps the generation instead.
func (s *Store) writeBlockLocked(cells []Cell, seq, gen int, bumpSeq bool) (*blockRef, error) {
	img := encodeBlock(cells)
	tmpPath, _, err := frame.WriteTemp(s.cfg.Dir, func(w io.Writer) error {
		_, err := w.Write(img)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmpPath)
	var path string
	for {
		if bumpSeq {
			seq = s.nextSeq
			s.nextSeq++
		}
		path = filepath.Join(s.cfg.Dir, blockName(seq, gen))
		err := os.Link(tmpPath, path)
		if err == nil {
			break
		}
		if errors.Is(err, os.ErrExist) {
			if !bumpSeq {
				gen++ // crash leftover under this name; take the next generation
			}
			continue // name taken (by another process or a leftover); try the next
		}
		// Filesystem without hard links: fall back to plain rename.
		if err := os.Rename(tmpPath, path); err != nil {
			return nil, err
		}
		break
	}
	s.stats.BlocksWritten++
	s.stats.CellsWritten += uint64(len(cells))
	s.stats.BytesWritten += uint64(len(img))
	return &blockRef{path: path, seq: seq, gen: gen, size: int64(len(img)), cells: len(cells)}, nil
}

// insertRefLocked adds a block keeping (seq, gen) order.
func (s *Store) insertRefLocked(ref *blockRef) {
	i := sort.Search(len(s.blocks), func(i int) bool {
		b := s.blocks[i]
		return b.seq > ref.seq || (b.seq == ref.seq && b.gen >= ref.gen)
	})
	s.blocks = append(s.blocks, nil)
	copy(s.blocks[i+1:], s.blocks[i:])
	s.blocks[i] = ref
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// Blocks returns the number of serveable blocks.
func (s *Store) Blocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// Close flushes pending cells. The store must not be used afterwards.
func (s *Store) Close() error {
	err := s.Flush()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return err
}
