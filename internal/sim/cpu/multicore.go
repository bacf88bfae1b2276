package cpu

// Multi-core lockstep simulation, after ChampSim's N-core model: every core
// is a complete single-core Pipeline — its own uop arena, queues, branch
// predictors, TLBs, and private L1I/L1D/L2 — and all cores share one LLC,
// one LLC↔DRAM port, and one DRAM (mem.SharedHierarchy). Cores advance in
// lockstep: each global cycle runs one pass of every active core in core
// order, then time moves for all of them at once.
//
// Event-horizon cycle skipping generalizes per the same invariant as the
// single-core case: a jump is legal only when NO core made progress, and it
// lands on the minimum registered wake across cores — the earliest moment
// any core can act. Cross-core interaction happens exclusively inside
// passes (shared-level accesses), so cycles in which every core is provably
// blocked cannot change shared state either.

import (
	"fmt"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/sim/mem"
)

// MultiPipeline is an N-core lockstep system over a shared memory
// hierarchy.
type MultiPipeline struct {
	cfg   Config
	cores []*Pipeline
	sh    *mem.SharedHierarchy

	// Reused across Run calls so the steady-state loop allocates nothing.
	done []bool
	out  []Stats
}

// NewMulti builds an N-core system from cfg (Cores ≥ 2; Cores == 1 is
// permitted for degenerate testing). Every core gets the same per-core
// configuration; cfg.Hierarchy.LLC describes the single shared LLC, whose
// Policy may additionally be "shared-srrip", and cfg.MemBandwidth the
// LLC↔DRAM port interval.
func NewMulti(cfg Config) (*MultiPipeline, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("cpu: NewMulti requires Cores >= 1, got %d", cfg.Cores)
	}
	if cfg.SamplePeriod > 0 {
		return nil, fmt.Errorf("cpu: sampled simulation is single-core only (SamplePeriod=%d with Cores=%d)", cfg.SamplePeriod, cfg.Cores)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Cores
	sh := mem.NewSharedHierarchy(n, cfg.Hierarchy, cfg.MemBandwidth)
	m := &MultiPipeline{
		cfg:  cfg,
		sh:   sh,
		done: make([]bool, n),
		out:  make([]Stats, n),
	}
	// Each core's pipeline is constructed with the shared-level knobs
	// scrubbed: its private view already embeds them, and the single-core
	// constructor would reject the names.
	ccfg := cfg
	ccfg.Cores = 0
	ccfg.MemBandwidth = 0
	if ccfg.Hierarchy.LLC.Policy == "shared-srrip" {
		ccfg.Hierarchy.LLC.Policy = ""
	}
	for i := 0; i < n; i++ {
		p, err := newPipeline(ccfg, sh.Cores[i], i)
		if err != nil {
			return nil, err
		}
		m.cores = append(m.cores, p)
	}
	return m, nil
}

// Hierarchy returns the shared memory system (tests and telemetry).
func (m *MultiPipeline) Hierarchy() *mem.SharedHierarchy { return m.sh }

// Core returns core i's pipeline (tests).
func (m *MultiPipeline) Core(i int) *Pipeline { return m.cores[i] }

// Run simulates len(srcs) == Cores trace sources in lockstep. srcs[i] == nil
// marks core i idle: it never steps, touches no shared state, and reports
// zero statistics — an N-core system with idle neighbors is therefore
// byte-identical to a single-core run of the active workload (the
// conformance suite proves it). warmup and maxInstructions apply per core;
// a core that reaches its budget or drains freezes its statistics and stops
// accessing the shared levels while the others run on.
//
// The returned slice is owned by the MultiPipeline and overwritten by the
// next Run call.
func (m *MultiPipeline) Run(srcs []champtrace.Source, warmup, maxInstructions uint64) ([]Stats, error) {
	if len(srcs) != len(m.cores) {
		return nil, fmt.Errorf("cpu: %d sources for %d cores", len(srcs), len(m.cores))
	}
	active := 0
	for i, p := range m.cores {
		m.out[i] = Stats{}
		if srcs[i] == nil {
			m.done[i] = true
			continue
		}
		m.done[i] = false
		active++
		if err := p.la.init(srcs[i]); err != nil {
			return nil, err
		}
		p.measuring = warmup == 0
		if p.measuring {
			p.beginMeasurement()
		}
	}
	skip := !m.cfg.NoCycleSkip
	// All active cores share one clock; align them (fresh pipelines are all
	// at zero, reused ones may have idled or stopped early in a previous
	// run, possibly with uops still in flight).
	cycle := uint64(0)
	for i, p := range m.cores {
		if !m.done[i] && p.cycle > cycle {
			cycle = p.cycle
		}
	}
	for i, p := range m.cores {
		if !m.done[i] {
			p.realignClock(cycle)
		}
	}
	for active > 0 {
		progressed := false
		wake := ^uint64(0)
		for i, p := range m.cores {
			if m.done[i] {
				continue
			}
			m.sh.SetRequester(i)
			p.pass()
			progressed = progressed || p.progressed
			if p.nextWake < wake {
				wake = p.nextWake
			}
		}
		if skip && !progressed && wake != ^uint64(0) && wake > cycle+1 {
			// No core progressed and the earliest cross-core wake is known:
			// every intervening cycle is dead for every core, including the
			// shared levels (which only move inside passes). Jump all
			// clocks, attributing the skipped span to each active core.
			for i, p := range m.cores {
				if !m.done[i] {
					p.jumpTo(wake)
				}
			}
			cycle = wake
		} else {
			for i, p := range m.cores {
				if !m.done[i] {
					p.cycle++
				}
			}
			cycle++
		}
		for i, p := range m.cores {
			if m.done[i] {
				continue
			}
			if !p.measuring && p.retired >= warmup {
				p.measuring = true
				p.beginMeasurement()
			}
			if (maxInstructions > 0 && p.retired >= maxInstructions) || p.drained() {
				m.out[i] = p.finalize()
				m.done[i] = true
				active--
			}
		}
	}
	return m.out, nil
}
