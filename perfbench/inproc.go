package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/experiments"
	"tracerebase/internal/expstore"
	"tracerebase/internal/report"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

// The program's default run lengths (rebase -instructions / -warmup).
const (
	instructions = 150000
	warmup       = 50000
)

// counters accumulates the per-layer counts of a traced run: what the
// benchmark's own calls returned, and each store's Stats() over each
// request.
type counters struct {
	mu sync.Mutex

	synthRecords, coreRecords uint64
	simInstructions           uint64
	simCycles                 uint64

	slabHits, slabMisses, slabPrefetches uint64
	slabMapped, slabWritten              uint64

	cacheHits, cacheMisses  uint64
	cacheRead, cacheWritten uint64
	expRead, expWritten     uint64

	jobsComputed, jobsFromCache uint64
	memHits, diskHits           uint64

	// strays counts result-cache misses and writes the workload does not
	// expect: each is a cell the program computed itself, outside the
	// benchmark's own calls into the layers.
	strays uint64
}

func (c *counters) add(f func(c *counters)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	f(c)
	c.mu.Unlock()
}

// strayCount returns strays, or 0 for the nil counters of an untraced run.
func (c *counters) strayCount() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.strays
}

func (c *counters) addSlabStats(ts tracestore.Stats) {
	c.add(func(c *counters) {
		c.slabHits += ts.Hits
		c.slabMisses += ts.Misses
		c.slabPrefetches += ts.Prefetches
		c.slabMapped += ts.BytesMapped
		c.slabWritten += ts.BytesWritten
	})
}

// timedBackend is the resultcache.Backend seam: it records a span around
// every Get and Put the program's cache makes, under whatever span the
// benchmark has open, and counts hits and payload bytes. A miss or a Put
// of a key that expected rejects is counted as a stray.
type timedBackend struct {
	resultcache.Backend
	rec      *recorder
	ctr      *counters
	expected func(resultcache.Key) bool
}

func (b timedBackend) Get(key resultcache.Key) ([]byte, error) {
	s := b.rec.begin("resultcache.get", -1)
	payload, err := b.Backend.Get(key)
	b.rec.end(s, nil)
	b.ctr.add(func(c *counters) {
		if err == nil {
			c.cacheHits++
			c.cacheRead += uint64(len(payload))
		} else {
			c.cacheMisses++
			if !b.expected(key) {
				c.strays++
			}
		}
	})
	return payload, err
}

func (b timedBackend) Put(key resultcache.Key, payload []byte) error {
	s := b.rec.begin("resultcache.put", -1)
	err := b.Backend.Put(key, payload)
	b.rec.end(s, nil)
	if err == nil {
		b.ctr.add(func(c *counters) {
			c.cacheWritten += uint64(len(payload))
			if !b.expected(key) {
				c.strays++
			}
		})
	}
	return err
}

// inproc answers requests in this process, composing the program's
// packages the way cmd/rebase and internal/report do and recording a span
// around every call it makes into a layer. Its output must be byte-identical
// to the rebase binary's, which checkOutput enforces.
type inproc struct {
	rec *recorder
	ctr *counters
	// computing is set while the benchmark's own compute runs: the only
	// time a request may miss the result cache or write to it.
	computing atomic.Bool
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: rebase: "+format+"\n", args...)
}

// do runs one request against the store under dir. With compute set it
// first computes every cell the request needs through the benchmark's own
// calls into synth, core, tracestore and sim, as the cold and resim
// workloads' first request must. A request in which the program computed
// a cell itself fails: the benchmark's compute missed it, or the store
// lacked it, and its time would hide in experiments.render_s.
func (p *inproc) do(s spec, dir string, compute bool) (out []byte, err error) {
	before := p.ctr.strayCount()
	defer func() {
		if n := p.ctr.strayCount() - before; n > 0 && err == nil {
			err = fmt.Errorf("%s: the program missed or wrote %d result-cache entries outside the benchmark's compute", s, n)
		}
	}()
	op, done := p.rec.enter("report.op")
	attrs := map[string]int64{}
	defer func() { done(attrs) }()
	if op != nil {
		op.Detail = s.String()
	}
	if s.Query != "" {
		return p.query(s, dir)
	}

	sp := p.rec.begin("tracestore.open", -1)
	slabs, err := experiments.OpenSlabStore(dir+"/slabs", 0, warnf)
	p.rec.end(sp, nil)
	if err != nil {
		return nil, err
	}
	sp = p.rec.begin("resultcache.open", -1)
	disk, err := resultcache.NewDisk(resultcache.DiskConfig{Dir: dir})
	p.rec.end(sp, nil)
	if err != nil {
		slabs.Close()
		return nil, err
	}
	cache := experiments.NewResultCache(timedBackend{disk, p.rec, p.ctr,
		func(resultcache.Key) bool { return p.computing.Load() }})
	sp = p.rec.begin("expstore.open", -1)
	exp, err := expstore.Open(expstore.Config{Dir: dir + "/exp", Warn: warnf})
	p.rec.end(sp, nil)
	if err != nil {
		slabs.Close()
		return nil, err
	}
	cfg := experiments.SweepConfig{
		Instructions: instructions,
		Warmup:       warmup,
		Cache:        cache,
		Slabs:        slabs,
		Exp:          exp,
	}

	var buf bytes.Buffer
	if compute {
		err = p.compute(cfg, s)
	}
	if err == nil {
		err = p.render(cfg, s, &buf)
	}

	sp = p.rec.begin("expstore.close", -1)
	if cerr := exp.Close(); cerr != nil && err == nil {
		err = cerr
	}
	p.rec.end(sp, nil)
	sp = p.rec.begin("tracestore.close", -1)
	slabs.Close()
	p.rec.end(sp, nil)
	ts, es := slabs.Stats(), exp.Stats()
	attrs["tracestore.prefetches"] = int64(ts.Prefetches)
	attrs["tracestore.bytes_mapped"] = int64(ts.BytesMapped)
	p.ctr.addSlabStats(ts)
	p.ctr.add(func(c *counters) { c.expWritten += es.BytesWritten })
	return buf.Bytes(), err
}

// query mirrors `rebase query -store-dir <dir>/exp '<q>'`.
func (p *inproc) query(s spec, dir string) ([]byte, error) {
	sp := p.rec.begin("expstore.open", -1)
	store, err := expstore.Open(expstore.Config{Dir: dir + "/exp", Warn: warnf})
	p.rec.end(sp, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		sp := p.rec.begin("expstore.close", -1)
		store.Close()
		p.rec.end(sp, nil)
	}()
	sp = p.rec.begin("expstore.query", -1)
	res, err := report.Query(store, s.Query, false)
	p.rec.end(sp, nil)
	if err != nil {
		return nil, err
	}
	p.ctr.add(func(c *counters) { c.expRead += uint64(res.Stats.BytesRead) })
	var out bytes.Buffer
	_, done := p.rec.enter("experiments.render")
	report.RenderQuery(&out, res)
	done(nil)
	return out.Bytes(), nil
}

// render mirrors report.Run's text path for the experiments the workloads
// request, with a span around each call. The figure sweep runs without the
// experiment store so that the benchmark can time the append and read-back
// RunSweep would otherwise do inside; Tables 2 and 3 keep theirs inside.
func (p *inproc) render(cfg experiments.SweepConfig, s spec, w io.Writer) error {
	all := s.Exp == "all"
	step := func(name string, f func() error) error {
		_, done := p.rec.enter(name)
		defer done(nil)
		return f()
	}
	if all {
		step("experiments.render", func() error {
			experiments.RenderTable1(w)
			fmt.Fprintln(w)
			return nil
		})
	}
	if all || strings.HasPrefix(s.Exp, "fig") {
		profiles := report.Subsample(synth.PublicSuite(), s.Step)
		noStore := cfg
		noStore.Exp = nil
		var results []experiments.TraceResult
		if err := step("experiments.sweep", func() (err error) {
			results, err = experiments.RunSweep(profiles, noStore)
			return err
		}); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if err := p.readBack(cfg, results); err != nil {
			return err
		}
		figs := []struct {
			name   string
			render func()
		}{
			{"fig1", func() { experiments.RenderFig1(w, experiments.Fig1(results)) }},
			{"fig2", func() { experiments.RenderFig2(w, experiments.Fig2(results)) }},
			{"fig3", func() { experiments.RenderFig3(w, experiments.Fig3(results)) }},
			{"fig4", func() { experiments.RenderFig4(w, experiments.Fig4(results)) }},
			{"fig5", func() { experiments.RenderFig5(w, experiments.Fig5(results)) }},
		}
		for _, f := range figs {
			if all || s.Exp == f.name {
				step("experiments.render", func() error {
					f.render()
					fmt.Fprintln(w)
					return nil
				})
			}
		}
	}
	suite := report.SubsampleIPC1(synth.IPC1Suite(), s.Step)
	if all || s.Exp == "table2" {
		var res experiments.Table2Result
		if err := step("experiments.table2", func() (err error) {
			res, err = experiments.Table2(cfg, suite)
			return err
		}); err != nil {
			return fmt.Errorf("table2: %w", err)
		}
		step("experiments.render", func() error {
			experiments.RenderTable2(w, res)
			fmt.Fprintln(w)
			return nil
		})
	}
	if all || s.Exp == "table3" {
		var res experiments.Table3Result
		if err := step("experiments.table3", func() (err error) {
			res, err = experiments.Table3(cfg, suite)
			return err
		}); err != nil {
			return fmt.Errorf("table3: %w", err)
		}
		step("experiments.render", func() error {
			experiments.RenderTable3(w, res)
			fmt.Fprintln(w)
			return nil
		})
	}
	return nil
}

// readBack appends every cell of the figure sweep to the experiment store
// and replaces the results with the store's copies, as RunSweep does when
// it holds the store itself; a cell the store cannot serve keeps its
// computed result there too.
func (p *inproc) readBack(cfg experiments.SweepConfig, results []experiments.TraceResult) error {
	type ref struct {
		ti   int
		name string
		key  expstore.Key
	}
	var refs []ref
	var keys []expstore.Key
	seen := make(map[expstore.Key]bool)
	sp := p.rec.begin("expstore.append", -1)
	for ti, tr := range results {
		for _, v := range experiments.Variants() {
			res, ok := tr.Results[v.Name]
			if !ok {
				continue
			}
			key, err := cfg.CellKey(tr.Profile, v)
			if err != nil {
				p.rec.end(sp, nil)
				return err
			}
			_ = cfg.Exp.Append(storeCell(&tr.Profile, v.Name, experiments.DevelopConfigFor(v.Opts), key, res))
			refs = append(refs, ref{ti, v.Name, key})
			if !seen[key] {
				seen[key] = true
				keys = append(keys, key)
			}
		}
	}
	p.rec.end(sp, nil)

	sp = p.rec.begin("expstore.readback", -1)
	cells, err := cfg.Exp.Cells(keys)
	p.rec.end(sp, nil)
	if err != nil {
		return fmt.Errorf("expstore read-back: %w", err)
	}
	for _, r := range refs {
		if cell, ok := cells[r.key]; ok {
			results[r.ti].Results[r.name] = experiments.Result{IPC: cell.IPC, Sim: cell.Sim, Conv: cell.Conv}
		}
	}
	return nil
}

// storeCell builds the experiment-store row of one cell the way the
// program does (internal/experiments/expstore.go).
func storeCell(p *synth.Profile, variant string, simCfg sim.Config, key resultcache.Key, res experiments.Result) expstore.Cell {
	return expstore.Cell{
		Trace:        p.Name,
		Category:     string(p.Category),
		Variant:      variant,
		Config:       simCfg.Name,
		Prefetcher:   simCfg.L1IPrefetcher,
		ROB:          uint64(simCfg.ROBSize),
		Cores:        1,
		SamplePeriod: simCfg.SamplePeriod,
		Instructions: instructions,
		Warmup:       warmup,
		Key:          key,
		IPC:          res.IPC,
		Sim:          res.Sim,
		Conv:         res.Conv,
	}
}

// slabKey derives a slab's store key the way the program does
// (internal/experiments/slabs.go). Were the two to diverge, the resim
// workload's traced run would miss its pre-populated slabs, and it counts
// that as a failure.
func slabKey(p *synth.Profile, opts core.Options) tracestore.Key {
	return resultcache.NewHasher("tracerebase/slab").
		U64(tracestore.FormatVersion).
		U64(core.ConverterVersion).
		Bytes(p.AppendCanonical(nil)).
		U64(instructions).
		U64(uint64(opts.Bits())).
		Sum()
}

// cell is one simulation of a request: a variant on a simulator model,
// cached under key.
type cell struct {
	sim sim.Config
	key resultcache.Key
}

// group is the cells that share one converted trace: one profile under
// one converter-option set.
type group struct {
	prof  *synth.Profile
	gen   *generation
	opts  core.Options
	cells []cell
}

// generation is one generated trace, shared by the groups of a section
// that convert the same profile and dropped when the last of them ends.
type generation struct {
	once   sync.Once
	instrs []cvp.Instruction
	err    error
	left   atomic.Int32
}

// section is one experiment's share of the cells, with the parallelism
// the program runs it at: the sweeps behind the figures and Table 2 use
// every CPU, Table 3 runs its cells one after another.
type section struct {
	groups   []*group
	parallel int
}

// sections lists every cell the request s needs, in the program's order.
func sections(cfg experiments.SweepConfig, s spec) ([]section, error) {
	all := s.Exp == "all"
	var out []section
	// classes groups variants by converter-option bits, as the sweep does.
	addSweep := func(profiles []synth.Profile, variants []experiments.Variant) error {
		sec := section{parallel: runtime.NumCPU()}
		for i := range profiles {
			gen := &generation{}
			byBits := map[uint8]*group{}
			for _, v := range variants {
				key, err := cfg.CellKey(profiles[i], v)
				if err != nil {
					return err
				}
				g := byBits[v.Opts.Bits()]
				if g == nil {
					g = &group{prof: &profiles[i], gen: gen, opts: v.Opts}
					byBits[v.Opts.Bits()] = g
					sec.groups = append(sec.groups, g)
					gen.left.Add(1)
				}
				g.cells = append(g.cells, cell{experiments.DevelopConfigFor(v.Opts), key})
			}
		}
		out = append(out, sec)
		return nil
	}
	if all || strings.HasPrefix(s.Exp, "fig") {
		if err := addSweep(report.Subsample(synth.PublicSuite(), s.Step), experiments.Variants()); err != nil {
			return nil, err
		}
	}
	suite := report.SubsampleIPC1(synth.IPC1Suite(), s.Step)
	profiles := make([]synth.Profile, len(suite))
	for i, t := range suite {
		profiles[i] = t.Profile
	}
	if all || s.Exp == "table2" {
		var variants []experiments.Variant
		for _, v := range experiments.Variants() {
			if v.Name == experiments.VariantNone || v.Name == experiments.VariantAll {
				variants = append(variants, v)
			}
		}
		if err := addSweep(profiles, variants); err != nil {
			return nil, err
		}
	}
	if all || s.Exp == "table3" {
		fixed := core.OptionsAll()
		fixed.MemFootprint = false
		sec := section{parallel: 1}
		for i := range profiles {
			gen := &generation{}
			for _, opts := range []core.Options{core.OptionsNone(), fixed} {
				rules := champtrace.RulesOriginal
				if opts.BranchRegs {
					rules = champtrace.RulesPatched
				}
				g := &group{prof: &profiles[i], gen: gen, opts: opts}
				for _, pf := range append([]string{"none"}, experiments.Table3Prefetchers...) {
					simCfg := sim.ConfigIPC1(pf, rules)
					key, err := resultcache.ParseKey(experiments.CacheKey(profiles[i], opts, simCfg, instructions, warmup).Key)
					if err != nil {
						return nil, err
					}
					g.cells = append(g.cells, cell{simCfg, key})
				}
				gen.left.Add(1)
				sec.groups = append(sec.groups, g)
			}
		}
		out = append(out, sec)
	}
	return out, nil
}

// compute computes every cell of s that the result cache lacks through
// the benchmark's own calls into the layers: generate, convert into a
// slab, simulate, cache.
func (p *inproc) compute(cfg experiments.SweepConfig, s spec) error {
	root, done := p.rec.enter("report.compute")
	defer done(nil)
	p.computing.Store(true)
	defer p.computing.Store(false)
	secs, err := sections(cfg, s)
	if err != nil {
		return err
	}
	var errs []error
	var mu sync.Mutex
	for _, sec := range secs {
		jobs := make(chan *group)
		var wg sync.WaitGroup
		for w := 0; w < sec.parallel; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g := range jobs {
					if err := p.computeGroup(cfg, g, root.id()); err != nil {
						mu.Lock()
						errs = append(errs, err)
						mu.Unlock()
					}
				}
			}()
		}
		for _, g := range sec.groups {
			jobs <- g
		}
		close(jobs)
		wg.Wait()
	}
	return errors.Join(errs...)
}

func (p *inproc) computeGroup(cfg experiments.SweepConfig, g *group, parent int) error {
	var slab *tracestore.Slab
	defer func() {
		slab.Release()
		if g.gen.left.Add(-1) == 0 {
			g.gen.instrs = nil
		}
	}()
	acquire := func() error {
		if slab != nil {
			return nil
		}
		get := p.rec.begin("tracestore.get", parent)
		sl, err := cfg.Slabs.GetOrConvert(slabKey(g.prof, g.opts),
			func(scratch []champtrace.Instruction) ([]champtrace.Instruction, core.Stats, error) {
				g.gen.once.Do(func() {
					sp := p.rec.begin("synth.generate", get.id())
					g.gen.instrs, g.gen.err = g.prof.GenerateBatch(instructions)
					p.rec.end(sp, nil)
					n := uint64(len(g.gen.instrs))
					p.ctr.add(func(c *counters) { c.synthRecords += n })
				})
				if g.gen.err != nil {
					return scratch, core.Stats{}, g.gen.err
				}
				sp := p.rec.begin("core.convert", get.id())
				recs, st, err := core.ConvertAllInto(scratch, cvp.NewValuesSource(g.gen.instrs), g.opts)
				p.rec.end(sp, nil)
				n := uint64(len(recs))
				p.ctr.add(func(c *counters) { c.coreRecords += n })
				return recs, st, err
			})
		p.rec.end(get, nil)
		slab = sl
		return err
	}
	for _, c := range g.cells {
		_, err := cfg.Cache.GetOrCompute(c.key, func() (experiments.Result, error) {
			if err := acquire(); err != nil {
				return experiments.Result{}, err
			}
			sp := p.rec.begin("sim.run", parent)
			st, err := sim.Run(champtrace.NewValuesSource(slab.Records()), c.sim, warmup, 0)
			p.rec.end(sp, nil)
			if err != nil {
				return experiments.Result{}, err
			}
			p.ctr.add(func(ct *counters) {
				ct.simInstructions += st.Instructions
				ct.simCycles += st.Cycles
			})
			return experiments.Result{IPC: st.IPC(), Sim: st, Conv: slab.Conv()}, nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", g.prof.Name, err)
		}
	}
	return nil
}
