// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the geomean and per-trace IPC impact of each conversion
// improvement (Figs. 1–2), the branch-MPKI and base-update correlations
// (Figs. 3–4), the call-stack fix (Fig. 5), the improvement summary
// (Table 1), the IPC-1 trace characterization (Table 2), and the IPC-1
// prefetcher ranking on competition vs fixed traces (Table 3).
//
// The sweep — every trace converted under every improvement set and
// simulated — is shared: Figs. 1–5 all derive from one sweep result.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/expstore"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

// Variant is one converter configuration of the evaluation.
type Variant struct {
	// Name is the artifact-style label ("No_imp", "imp_flag-regs", ...).
	Name string
	// Opts is the improvement set applied.
	Opts core.Options
}

// Variant names used throughout the experiments.
const (
	VariantNone         = "No_imp"
	VariantMemRegs      = "mem-regs"
	VariantBaseUpdate   = "base-update"
	VariantMemFootprint = "mem-footprint"
	VariantMemory       = "Memory_imps"
	VariantFlagReg      = "flag-reg"
	VariantBranchRegs   = "branch-regs"
	VariantCallStack    = "call-stack"
	VariantBranch       = "Branch_imps"
	VariantAll          = "All_imps"
)

// Variants returns the ten converter configurations of Figs. 1–2: the
// original converter, each improvement individually, the Memory and Branch
// sets, and all improvements together.
func Variants() []Variant {
	return []Variant{
		{VariantNone, core.OptionsNone()},
		{VariantMemRegs, core.Options{MemRegs: true}},
		{VariantBaseUpdate, core.Options{BaseUpdate: true}},
		{VariantMemFootprint, core.Options{MemFootprint: true}},
		{VariantMemory, core.OptionsMemory()},
		{VariantFlagReg, core.Options{FlagReg: true}},
		{VariantBranchRegs, core.Options{BranchRegs: true}},
		{VariantCallStack, core.Options{CallStack: true}},
		{VariantBranch, core.OptionsBranch()},
		{VariantAll, core.OptionsAll()},
	}
}

// figureVariants selects a subset of Variants by name.
func figureVariants(names ...string) []Variant {
	all := Variants()
	var out []Variant
	for _, n := range names {
		for _, v := range all {
			if v.Name == n {
				out = append(out, v)
			}
		}
	}
	return out
}

// Result is the outcome of simulating one trace under one variant.
type Result struct {
	// IPC is instructions per cycle in the measured region.
	IPC float64
	// Sim carries the full simulator statistics.
	Sim sim.Stats
	// Conv carries the converter statistics.
	Conv core.Stats
}

// TraceResult bundles all variant results for one trace.
type TraceResult struct {
	Profile synth.Profile
	Results map[string]Result
}

// Delta returns the IPC change (ratio-1) of variant v relative to the
// original converter.
func (tr TraceResult) Delta(v string) float64 {
	base := tr.Results[VariantNone].IPC
	if base == 0 {
		return 0
	}
	return tr.Results[v].IPC/base - 1
}

// SweepConfig parameterizes a sweep.
type SweepConfig struct {
	// Instructions is the per-trace dynamic instruction count;
	// Warmup instructions are excluded from statistics.
	Instructions int
	Warmup       uint64
	// Variants lists the converter configurations to run; nil means all
	// ten.
	Variants []Variant
	// Parallelism bounds concurrent (trace, variant) simulations;
	// 0 = NumCPU.
	Parallelism int
	// Progress, when non-nil, is called after each trace completes all of
	// its cells, with done counting 1, 2, ..., total in order: the count is
	// taken and the callback run under one mutex, so a call for done=4 can
	// never arrive after the one for done=5. A slow callback stalls only
	// the workers that finish a trace while it runs.
	Progress func(done, total int)
	// NoSkip disables the simulator's event-horizon cycle skipping
	// (sim.Config.NoCycleSkip) for every simulation the sweep dispatches.
	// Results are identical either way; the flag exists for verifying that
	// claim and for benchmarking the skipper itself. It participates in
	// result-cache keys through the config identity, so skip-on and
	// skip-off runs never share cache entries.
	NoSkip bool
	// Cache, when non-nil, serves (trace, variant, config) Results by
	// content address instead of recomputing them: the sweep consults it
	// before dispatching work, skips generation and conversion entirely
	// for fully-cached traces, and stores every freshly computed Result.
	// Concurrent requests for the same key share one computation
	// (single-flight). nil reproduces the uncached engine exactly.
	Cache *ResultCache
	// SamplePeriod > 0 switches every simulation the sweep dispatches to
	// SMARTS-style interval sampling (sim.Config.SamplePeriod): one
	// SampleDetail-instruction detailed interval per SamplePeriod retired
	// instructions, with SampleWarm instructions of functional warming
	// ahead of each interval (0 = warm whole gaps). The parameters flow
	// into the simulator configuration and therefore into result-cache
	// keys, so sampled and exact results can never collide.
	SamplePeriod, SampleDetail, SampleWarm uint64
	// Cores > 1 switches RunMultiSweep cells to N-core lockstep simulation
	// over a shared LLC (single-core entry points ignore it). LLCPolicy
	// optionally overrides the shared LLC replacement policy ("srrip",
	// "drrip", or the multi-core-only "shared-srrip"); MemBandwidth sets
	// the shared LLC↔DRAM port issue interval in cycles (0 = unmodeled).
	// All three flow into the simulator configuration identity, so
	// multi-core cells key disjointly in the result cache.
	Cores        int
	LLCPolicy    string
	MemBandwidth uint64
	// MultiCache, when non-nil, serves co-scheduled multi-core cell
	// results by content address (a separate store from Cache — the value
	// type differs). nil recomputes every multi-core cell.
	MultiCache *MultiCache
	// Slabs, when non-nil, serves converted instruction slabs by content
	// address: conversion is hoisted out of the per-cell loop into
	// converter-option equivalence classes (convert once per trace and
	// class, feed every cell in the class from one shared read-only slab),
	// and warm slabs load zero-copy from disk instead of reconverting.
	// nil reproduces the streaming-conversion engine exactly.
	Slabs *SlabStore
	// Exp, when non-nil, is the append-only columnar experiment store:
	// every cell the sweep computes (or serves from the result cache) is
	// appended as one row keyed by the cell's content address, and once
	// the sweep assembles its results they are replaced by their
	// store-read copies — the figure pipeline downstream consumes what the
	// store serves, making the engine the query layer's first consumer.
	// Appends and read-back degrade gracefully (a failed write or a
	// dropped corrupt block falls back to the in-memory result), so nil
	// and a broken store alike reproduce the plain engine exactly.
	Exp *expstore.Store
	// ExpMisses, when non-nil, is called once per sweep with the number of
	// cells the store read-back could not serve. Zero in a healthy store;
	// the store-transparency conformance oracle pins it there.
	ExpMisses func(misses int)
	// Checkpoints, when non-nil alongside sampling, serves warmed-prefix
	// checkpoints by content address: cells sharing a warm identity
	// (keyed by WarmIdentity, not the full config identity) resume from
	// one shared checkpoint instead of each re-warming its prefix. A
	// per-run gate (see checkpointGate) keeps cells with unshared keys on
	// the plain path so no checkpoint is computed or persisted for them.
	// nil, or an exact-mode sweep, bypasses checkpointing entirely.
	Checkpoints *CheckpointCache
	// ckptGate is shared by every copy of the config made after fill();
	// it spans all cells of one experiment run.
	ckptGate *checkpointGate
}

// DefaultSweepConfig returns the configuration used by the rebase CLI:
// 150k instructions per trace with a 50k warm-up. The paper runs the
// original traces (tens of millions of instructions) to completion without
// warm-up; the warm-up here stands in for the steady state a full-length
// trace reaches on its own.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{Instructions: 150000, Warmup: 50000}
}

// fill defaults the zero fields and rejects configurations that would
// silently produce meaningless sweeps: a negative instruction count or
// parallelism, and a warm-up consuming the whole run (the measurement
// region would be empty, so every IPC would be 0/0).
func (c *SweepConfig) fill() error {
	if c.Instructions < 0 {
		return fmt.Errorf("experiments: negative instruction count %d", c.Instructions)
	}
	if c.Instructions == 0 {
		c.Instructions = 150000
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("experiments: negative parallelism %d", c.Parallelism)
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.Warmup >= uint64(c.Instructions) {
		return fmt.Errorf("experiments: warmup %d >= instructions %d leaves an empty measurement region",
			c.Warmup, c.Instructions)
	}
	if c.Variants == nil {
		c.Variants = Variants()
	}
	if c.Checkpoints != nil && c.ckptGate == nil {
		c.ckptGate = &checkpointGate{}
	}
	return nil
}

// dispatchConfig applies the sweep's cycle-skipping and sampling settings
// to a model configuration. Every single-core grid (the figure sweep,
// Table 3, the ablation) builds its cell configurations through it, so
// NoSkip and sampled results are keyed apart from default ones everywhere.
func (c *SweepConfig) dispatchConfig(sc sim.Config) sim.Config {
	sc.NoCycleSkip = c.NoSkip
	sc.SamplePeriod = c.SamplePeriod
	sc.SampleDetail = c.SampleDetail
	sc.SampleWarm = c.SampleWarm
	return sc
}

// simConfigFor returns the develop-branch model configuration for opts
// (via DevelopConfigFor, which pairs branch-deduction rules with options)
// with the sweep's settings applied. Dispatch and cache keys share it.
func (c *SweepConfig) simConfigFor(opts core.Options) sim.Config {
	return c.dispatchConfig(DevelopConfigFor(opts))
}

// cell is one simulation of an experiment grid: trace ti of the grid's
// profiles, converted under opts and simulated on sim. label is the
// cell's variant column in the experiment store ("No_imp", "competition",
// "coupled", ...) and names the cell in errors.
type cell struct {
	ti    int
	label string
	opts  core.Options
	sim   sim.Config
}

// simulate runs one cell over sources from mkSource, which must return a
// fresh start-of-trace source on every call (the checkpoint path invokes
// it more than once) together with a converter-statistics getter valid
// after the source is drained. In sampled mode with a checkpoint cache,
// the simulation resumes from a shared warmed-prefix checkpoint rather
// than re-warming.
func simulate(p *synth.Profile, c cell, mkSource func() (champtrace.Source, func() core.Stats, func()), cfg *SweepConfig) (Result, error) {
	if cfg.Checkpoints != nil && c.sim.SamplePeriod > 0 && cfg.Warmup > 0 {
		key := checkpointKey(p, c.opts, c.sim, cfg.Instructions, cfg.Warmup)
		res, ok, err := runCheckpointed(cfg.Checkpoints, cfg.ckptGate, key, mkSource, c.sim, cfg.Warmup)
		if err != nil {
			return Result{}, err
		}
		if ok {
			return res, nil
		}
	}
	src, convStats, cleanup := mkSource()
	defer cleanup()
	st, err := sim.Run(src, c.sim, cfg.Warmup, 0)
	if err != nil {
		return Result{}, err
	}
	return Result{IPC: st.IPC(), Sim: st, Conv: convStats()}, nil
}

// streamSource returns a source factory that converts instrs under opts
// batch by batch straight into the simulator — the slab-store-off path.
// instrs is read-only and may be shared by concurrent callers.
func streamSource(instrs []cvp.Instruction, opts core.Options) func() (champtrace.Source, func() core.Stats, func()) {
	return func() (champtrace.Source, func() core.Stats, func()) {
		cs := core.NewConverterSource(cvp.NewValuesSource(instrs), opts)
		return cs, cs.Stats, func() { cs.Close() }
	}
}

// slabSource returns a source factory over a store slab's shared read-only
// records: conversion already happened (this run or a previous process),
// so the cell is pure simulation. The slab's persisted converter
// statistics stand in for the streaming converter's end-of-trace
// statistics — they are equal by construction, which the
// slab-transparency conformance oracle enforces.
func slabSource(sl *tracestore.Slab) func() (champtrace.Source, func() core.Stats, func()) {
	conv := sl.Conv()
	recs := sl.Records()
	return func() (champtrace.Source, func() core.Stats, func()) {
		return champtrace.NewValuesSource(recs), func() core.Stats { return conv }, func() {}
	}
}

// traceState is the per-trace shared state of a grid run: the generated
// instruction slab (produced once, read-only across the trace's cell
// workers), the count of cells still outstanding, and — with a slab
// store — one hold per converter-option equivalence class.
type traceState struct {
	once   sync.Once
	instrs []cvp.Instruction
	err    error
	left   atomic.Int32
	// classes is indexed by equivalence-class id (see converterClasses);
	// nil when the grid runs without a slab store.
	classes []classCell
}

// classCell is the per-(trace, converter-option-class) slab hold: acquired
// once by whichever cell of the class gets there first, shared read-only
// across the class's cells, and released when the last cell drains.
type classCell struct {
	once sync.Once
	slab *tracestore.Slab
	err  error
	left atomic.Int32
}

// release drops the class's slab reference once the last cell has
// finished. The once.Do here is load-bearing even when it runs the no-op:
// a cell served entirely from the result cache never entered the
// initializer, and without the Do it would read cc.slab unsynchronized
// with the goroutine that acquired it.
func (cc *classCell) release() {
	if cc.left.Add(-1) != 0 {
		return
	}
	cc.once.Do(func() {})
	if cc.slab != nil {
		cc.slab.Release()
		cc.slab = nil
	}
}

// converterClasses groups option sets into converter-option equivalence
// classes: identical option bits produce identical converted traces, so
// they share one slab per trace. classOf maps each input index to its
// class id; classOpts holds each class's option set.
func converterClasses(opts []core.Options) (classOf []int, classOpts []core.Options) {
	classOf = make([]int, len(opts))
	byBits := make(map[uint8]int)
	for i, o := range opts {
		bits := o.Bits()
		ci, ok := byBits[bits]
		if !ok {
			ci = len(classOpts)
			byBits[bits] = ci
			classOpts = append(classOpts, o)
		}
		classOf[i] = ci
	}
	return classOf, classOpts
}

// runCells is the engine behind every single-core experiment grid: a
// bounded pool of cfg.Parallelism workers drains the cells, which must be
// trace-major (all of a trace's cells adjacent), so at most ~Parallelism
// traces have live instruction slabs. Each trace is generated at most
// once — by whichever worker first needs it — and shared read-only across
// its cells; with a slab store, conversion is hoisted into the trace's
// converter-option classes instead of streaming per cell.
//
// With cfg.Cache set, each cell is first looked up by its content address;
// a hit skips generation, conversion and simulation — a fully-cached trace
// is never generated at all, because generation is deferred into the
// compute closure that only a miss invokes — and concurrent misses on one
// key share a single computation. Every successful cell is appended to
// cfg.Exp under its label.
//
// res[i] and ok[i] describe cells[i] whatever the completion order. errs
// holds, in grid order, one error per trace whose generation failed and
// one per other failed cell; every cell that did succeed is still
// delivered.
func runCells(profiles []synth.Profile, cells []cell, cfg *SweepConfig) (res []Result, ok []bool, errs []error) {
	optsOf := make([]core.Options, len(cells))
	for i, c := range cells {
		optsOf[i] = c.opts
	}
	classOf, classOpts := converterClasses(optsOf)
	states := make([]traceState, len(profiles))
	if cfg.Slabs != nil {
		for ti := range states {
			states[ti].classes = make([]classCell, len(classOpts))
		}
	}
	for i, c := range cells {
		states[c.ti].left.Add(1)
		if cfg.Slabs != nil {
			states[c.ti].classes[classOf[i]].left.Add(1)
		}
	}
	res = make([]Result, len(cells))
	ok = make([]bool, len(cells))
	cellErrs := make([]error, len(cells))

	jobs := make(chan int)
	var wg sync.WaitGroup
	// Progress counts and reports under one mutex, so calls never overlap
	// and their done counts arrive strictly in order.
	var progressMu sync.Mutex
	done := 0
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				c := cells[i]
				p := &profiles[c.ti]
				st := &states[c.ti]
				generate := func() ([]cvp.Instruction, error) {
					st.once.Do(func() {
						st.instrs, st.err = p.GenerateBatch(cfg.Instructions)
					})
					return st.instrs, st.err
				}
				compute := func() (Result, error) {
					if cfg.Slabs == nil {
						instrs, err := generate()
						if err != nil {
							return Result{}, err
						}
						return simulate(p, c, streamSource(instrs, c.opts), cfg)
					}
					// The first cell of the class to miss the result cache
					// acquires the slab (converting only if the store misses
					// too — generation is deferred all the way into that
					// innermost miss); every later cell simulates from the
					// same mapping.
					cc := &st.classes[classOf[i]]
					cc.once.Do(func() {
						cc.slab, cc.err = acquireSlab(cfg.Slabs, p, classOpts[classOf[i]], cfg.Instructions, generate)
					})
					if cc.err != nil {
						return Result{}, cc.err
					}
					return simulate(p, c, slabSource(cc.slab), cfg)
				}
				var r Result
				var err error
				var key resultcache.Key
				if cfg.Cache != nil || cfg.Exp != nil {
					key = cacheKey(p, c.opts, c.sim, cfg.Instructions, cfg.Warmup)
				}
				if cfg.Cache != nil {
					r, err = cfg.Cache.GetOrCompute(key, compute)
				} else {
					r, err = compute()
				}
				if err == nil {
					cfg.recordCell(p, c.label, c.sim, key, r)
				}
				if cfg.Slabs != nil {
					st.classes[classOf[i]].release()
				}
				switch {
				case err == nil:
					res[i], ok[i] = r, true
				case st.err != nil:
					// Generation failure: reported once per trace, not
					// once per cell.
				default:
					cellErrs[i] = fmt.Errorf("experiments: %s/%s: %w", p.Name, c.label, err)
				}
				if st.left.Add(-1) == 0 {
					st.instrs = nil // last cell done: release the trace
					progressMu.Lock()
					done++
					if cfg.Progress != nil {
						cfg.Progress(done, len(profiles))
					}
					progressMu.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i, c := range cells {
		// Cells are trace-major: report a generation failure at the
		// trace's first cell.
		if st := &states[c.ti]; st.err != nil && (i == 0 || cells[i-1].ti != c.ti) {
			errs = append(errs, fmt.Errorf("experiments: generate %s: %w", profiles[c.ti].Name, st.err))
		}
		if cellErrs[i] != nil {
			errs = append(errs, cellErrs[i])
		}
	}
	return res, ok, errs
}

// RunSweep simulates every profile under every variant of cfg on the
// shared cell engine (runCells), one develop-model cell per (trace,
// variant), so sweep parallelism is trace×variant-wide rather than
// trace-wide.
//
// Results are assembled deterministically: out[i] always corresponds to
// profiles[i] regardless of completion order. On failure the returned
// error is the errors.Join of every per-(trace, variant) failure, and out
// still carries every result that did succeed — a trace whose generation
// failed has an empty Results map (cached cells, which need no generation,
// are still delivered), a trace with a failed variant is missing only that
// variant's entry.
func RunSweep(profiles []synth.Profile, cfg SweepConfig) ([]TraceResult, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	nv := len(cfg.Variants)
	cells := make([]cell, 0, len(profiles)*nv)
	for ti := range profiles {
		for _, v := range cfg.Variants {
			cells = append(cells, cell{ti: ti, label: v.Name, opts: v.Opts, sim: cfg.simConfigFor(v.Opts)})
		}
	}
	res, ok, errs := runCells(profiles, cells, &cfg)
	out := make([]TraceResult, len(profiles))
	for ti := range profiles {
		out[ti] = TraceResult{Profile: profiles[ti], Results: make(map[string]Result, nv)}
		for vi, v := range cfg.Variants {
			if i := ti*nv + vi; ok[i] {
				out[ti].Results[v.Name] = res[i]
			}
		}
	}
	// With an experiment store, the assembled results are exchanged for
	// their store-read copies before anything downstream sees them.
	if cfg.Exp != nil {
		misses, rbErr := storeReadBack(&cfg, out)
		if rbErr != nil {
			errs = append(errs, rbErr)
		}
		if cfg.ExpMisses != nil {
			cfg.ExpMisses(misses)
		}
	}
	return out, errors.Join(errs...)
}
