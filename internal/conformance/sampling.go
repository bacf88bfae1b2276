package conformance

// Sampling oracles: SMARTS-style sampled simulation (sim.Config.SamplePeriod)
// trades a pinned, bounded IPC error for speed, and everything else about it
// must stay exact — deterministic replay, checkpoint-resume equality, cache
// keys disjoint from exact mode's. These checks make those contracts part of
// `rebase -selftest`, alongside the golden corpus's pinned sampled counters.

import (
	"fmt"
	"os"

	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/experiments"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

// selftestSampling sizes the selftest's sampled runs: SimInstructions-length
// traces are far shorter than production runs, so the period scales down with
// them (the golden corpus pins its own, manifest-recorded parameters).
func selftestSampling(n int) (period, detail, warm uint64) {
	period = uint64(n) / 8
	if period < 16 {
		period = 16
	}
	return period, period / 2, period / 4
}

func sampledCfg(opts core.Options, period, detail, warm uint64) sim.Config {
	cfg := develCfg(opts)
	cfg.SamplePeriod, cfg.SampleDetail, cfg.SampleWarm = period, detail, warm
	return cfg
}

// sampledCfgFor is sampledCfg at the selftest's n-scaled parameters.
func sampledCfgFor(opts core.Options, n int) sim.Config {
	period, detail, warm := selftestSampling(n)
	return sampledCfg(opts, period, detail, warm)
}

// CheckSampledDeterminism generates the profile's trace once and runs the
// sampled simulation twice, requiring bit-identical statistics: interval
// placement is a pure function of the trace (content-salted LCG), so sampled
// runs must replay exactly.
func CheckSampledDeterminism(p synth.Profile, n int, warmup uint64) error {
	instrs, err := p.GenerateBatch(n)
	if err != nil {
		return err
	}
	opts := core.OptionsAll()
	cfg := sampledCfgFor(opts, n)
	first, err := simulate(instrs, opts, cfg, warmup)
	if err != nil {
		return err
	}
	second, err := simulate(instrs, opts, cfg, warmup)
	if err != nil {
		return err
	}
	if first != second {
		return fmt.Errorf("%s: two sampled runs of the same trace diverge:\n first  %+v\n second %+v", p.Name, first, second)
	}
	if first.SampleIntervals == 0 {
		return fmt.Errorf("%s: sampled run measured no intervals (period too long for %d instructions?)", p.Name, n)
	}
	return nil
}

// CheckCheckpointResume proves the mid-trace resume contract. In sampled
// mode a run's warm-up phase is exactly the functional warming a checkpoint
// captures, so resuming from a warm-up checkpoint must reproduce the
// uninterrupted run bit for bit. In exact mode the plain run warms up
// through the detailed pipeline instead, so the resume oracle is restore
// determinism: two independent resumes from the same checkpoint must agree
// (the live-continuation equality is covered by the simulator's own tests).
func CheckCheckpointResume(p synth.Profile, n int, warmup uint64) error {
	instrs, err := p.GenerateBatch(n)
	if err != nil {
		return err
	}
	opts := core.OptionsAll()
	resume := func(cfg sim.Config, ck sim.Checkpoint) (sim.Stats, error) {
		cs := core.NewConverterSource(cvp.NewValuesSource(instrs), opts)
		defer cs.Close()
		return sim.RunFrom(cs, cfg, ck, 0)
	}
	checkpoint := func(cfg sim.Config) (sim.Checkpoint, error) {
		cs := core.NewConverterSource(cvp.NewValuesSource(instrs), opts)
		defer cs.Close()
		return sim.WarmCheckpoint(cs, cfg, warmup)
	}

	sampled := sampledCfgFor(opts, n)
	straight, err := simulate(instrs, opts, sampled, warmup)
	if err != nil {
		return fmt.Errorf("%s sampled: %w", p.Name, err)
	}
	ck, err := checkpoint(sampled)
	if err != nil {
		return fmt.Errorf("%s sampled: checkpoint: %w", p.Name, err)
	}
	resumed, err := resume(sampled, ck)
	if err != nil {
		return fmt.Errorf("%s sampled: resume: %w", p.Name, err)
	}
	if straight != resumed {
		return fmt.Errorf("%s sampled: checkpoint resume diverges from the uninterrupted run:\n straight %+v\n resumed  %+v",
			p.Name, straight, resumed)
	}

	exact := develCfg(opts)
	ck, err = checkpoint(exact)
	if err != nil {
		return fmt.Errorf("%s exact: checkpoint: %w", p.Name, err)
	}
	first, err := resume(exact, ck)
	if err != nil {
		return fmt.Errorf("%s exact: resume: %w", p.Name, err)
	}
	second, err := resume(exact, ck)
	if err != nil {
		return fmt.Errorf("%s exact: resume: %w", p.Name, err)
	}
	if first != second {
		return fmt.Errorf("%s exact: two resumes from one checkpoint diverge:\n first  %+v\n second %+v",
			p.Name, first, second)
	}
	return nil
}

// CheckSampledKeyDisjoint proves that sampled and exact simulations can
// never share a result-cache entry, and that different sampling parameters
// key apart from each other: the sampling knobs participate in
// cpu.Config.Identity, so every (period, detail, warm) triple is its own
// cache universe.
func CheckSampledKeyDisjoint(p synth.Profile, n int, warmup uint64) error {
	opts := core.OptionsAll()
	period, detail, warm := selftestSampling(n)
	cfgs := []struct {
		name string
		cfg  sim.Config
	}{
		{"exact", develCfg(opts)},
		{"sampled", sampledCfg(opts, period, detail, warm)},
		{"sampled-period/2", sampledCfg(opts, period/2, detail/2, warm/2)},
		{"sampled-warm/2", sampledCfg(opts, period, detail, warm/2)},
	}
	seen := make(map[string]string, len(cfgs))
	for _, c := range cfgs {
		key := experiments.CacheKey(p, opts, c.cfg, n, warmup).Key
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("%s: cache key collision between %s and %s configurations (key %s)",
				p.Name, prev, c.name, key)
		}
		seen[key] = c.name
	}
	return nil
}

// CheckSampledParallelism runs the same sampled grids (the figure sweep,
// Table 3 and the front-end ablation; see CheckSweepParallelism)
// single-threaded and with parallelism workers and requires byte-identical
// results: interval schedules are per-trace deterministic, so worker
// scheduling must not leak into sampled statistics any more than into
// exact ones. Each run gets a fresh checkpoint cache, so the checkpoint
// gate admits the ablation's shared warm identities concurrently; both
// runs must write checkpoints.
func CheckSampledParallelism(profiles []synth.Profile, instructions int, warmup uint64, parallelism int) error {
	if parallelism < 2 {
		parallelism = 4
	}
	period, detail, warm := selftestSampling(instructions)
	run := func(par int) ([3][]byte, error) {
		dir, err := os.MkdirTemp("", "tracerebase-sampledcheck-")
		if err != nil {
			return [3][]byte{}, err
		}
		defer os.RemoveAll(dir)
		ckpts, err := experiments.OpenCheckpointCache(dir, 0)
		if err != nil {
			return [3][]byte{}, err
		}
		defer ckpts.Close()
		grids, err := runGrids(profiles, experiments.SweepConfig{
			Instructions: instructions,
			Warmup:       warmup,
			Parallelism:  par,
			SamplePeriod: period,
			SampleDetail: detail,
			SampleWarm:   warm,
			Checkpoints:  ckpts,
		})
		if err != nil {
			return grids, err
		}
		if st := ckpts.Stats(); st.BytesWritten == 0 {
			return grids, fmt.Errorf("no checkpoint written (checkpoint gate never admitted a shared warm identity): %+v", st)
		}
		return grids, nil
	}
	return compareParallelism(run, "sampled ", parallelism)
}
