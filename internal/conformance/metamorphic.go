package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/experiments"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

// simulate converts the slab under opts and runs it on cfg, mirroring the
// sweep engine's streaming data path.
func simulate(instrs []cvp.Instruction, opts core.Options, cfg sim.Config, warmup uint64) (sim.Stats, error) {
	cs := core.NewConverterSource(cvp.NewValuesSource(instrs), opts)
	defer cs.Close()
	return sim.Run(cs, cfg, warmup, 0)
}

// develCfg returns the develop-model configuration matching opts (patched
// branch rules when the branch-regs improvement is on).
func develCfg(opts core.Options) sim.Config {
	rules := champtrace.RulesOriginal
	if opts.BranchRegs {
		rules = champtrace.RulesPatched
	}
	return sim.ConfigDevelop(rules)
}

// CheckSimDeterminism generates the profile's trace once and simulates it
// twice, requiring bit-identical statistics — the simulator must be a pure
// function of its input trace and configuration.
func CheckSimDeterminism(p synth.Profile, n int, warmup uint64) error {
	instrs, err := p.GenerateBatch(n)
	if err != nil {
		return err
	}
	opts := core.OptionsAll()
	first, err := simulate(instrs, opts, develCfg(opts), warmup)
	if err != nil {
		return err
	}
	second, err := simulate(instrs, opts, develCfg(opts), warmup)
	if err != nil {
		return err
	}
	if first != second {
		return fmt.Errorf("%s: two runs of the same trace diverge:\n first  %+v\n second %+v", p.Name, first, second)
	}
	return nil
}

// CheckGenerateDeterminism requires Profile.GenerateBatch to be a pure
// function of (Profile, n), and the pull-based Stream to emit the identical
// sequence.
func CheckGenerateDeterminism(p synth.Profile, n int) error {
	a, err := p.GenerateBatch(n)
	if err != nil {
		return err
	}
	b, err := p.GenerateBatch(n)
	if err != nil {
		return err
	}
	if len(a) != len(b) {
		return fmt.Errorf("%s: generated %d then %d instructions", p.Name, len(a), len(b))
	}
	for i := range a {
		if !CVPEqual(&a[i], &b[i]) {
			return fmt.Errorf("%s: generation diverges at instruction %d", p.Name, i)
		}
	}
	return nil
}

// CheckSweepParallelism runs the same grids single-threaded and with
// parallelism workers and requires byte-identical results (compared through
// a canonical JSON encoding), proving the cell engine introduces no
// scheduling-dependent behaviour: the figure sweep over profiles, plus
// Table 3 and the front-end ablation over two IPC-1 traces.
func CheckSweepParallelism(profiles []synth.Profile, instructions int, warmup uint64, parallelism int) error {
	if parallelism < 2 {
		parallelism = 4
	}
	run := func(par int) ([3][]byte, error) {
		return runGrids(profiles, experiments.SweepConfig{
			Instructions: instructions,
			Warmup:       warmup,
			Parallelism:  par,
		})
	}
	return compareParallelism(run, "", parallelism)
}

// gridNames names runGrids' results, in order.
var gridNames = [...]string{"sweep", "table 3", "ablation"}

// runGrids runs every single-core grid the cell engine serves under cfg —
// the figure sweep over profiles, and Table 3 and the front-end ablation
// over one client and one icache-heavy server IPC-1 trace — and returns
// their JSON encodings.
func runGrids(profiles []synth.Profile, cfg experiments.SweepConfig) ([3][]byte, error) {
	var out [3][]byte
	var suite []synth.IPC1Trace
	for _, name := range []string{"client_001", "server_023"} {
		tr, ok := synth.FindIPC1(name)
		if !ok {
			return out, fmt.Errorf("IPC-1 trace %s missing", name)
		}
		suite = append(suite, tr)
	}
	sweep, err := experiments.RunSweep(profiles, cfg)
	if err != nil {
		return out, fmt.Errorf("sweep: %w", err)
	}
	table3, err := experiments.Table3(cfg, suite)
	if err != nil {
		return out, fmt.Errorf("table 3: %w", err)
	}
	ablation, err := experiments.FrontEndAblation(cfg, suite)
	if err != nil {
		return out, fmt.Errorf("ablation: %w", err)
	}
	for i, v := range []any{sweep, table3, ablation} {
		if out[i], err = json.Marshal(v); err != nil {
			return out, err
		}
	}
	return out, nil
}

// compareParallelism runs the grids at -parallel 1 and -parallel
// parallelism and requires every grid's JSON to match byte for byte. mode
// ("" or "sampled ") prefixes the grid names in errors.
func compareParallelism(run func(par int) ([3][]byte, error), mode string, parallelism int) error {
	serial, err := run(1)
	if err != nil {
		return fmt.Errorf("-parallel 1: %w", err)
	}
	concurrent, err := run(parallelism)
	if err != nil {
		return fmt.Errorf("-parallel %d: %w", parallelism, err)
	}
	for i := range serial {
		if !bytes.Equal(serial[i], concurrent[i]) {
			return fmt.Errorf("%s%s results differ between -parallel 1 and -parallel %d (%d vs %d JSON bytes)",
				mode, gridNames[i], parallelism, len(serial[i]), len(concurrent[i]))
		}
	}
	return nil
}

// CheckROBMonotonic simulates the profile under a growing reorder buffer
// and requires IPC to respond monotonically: more ILP extraction window
// must never cost throughput on these synthetic microbenchmarks.
func CheckROBMonotonic(p synth.Profile, n int, warmup uint64) error {
	instrs, err := p.GenerateBatch(n)
	if err != nil {
		return err
	}
	opts := core.OptionsAll()
	sizes := []int{16, 64, 352}
	prev := -1.0
	for _, rob := range sizes {
		cfg := develCfg(opts)
		cfg.ROBSize = rob
		st, err := simulate(instrs, opts, cfg, warmup)
		if err != nil {
			return fmt.Errorf("%s rob=%d: %w", p.Name, rob, err)
		}
		if st.IPC() < prev {
			return fmt.Errorf("%s: IPC fell from %.4f to %.4f when the ROB grew to %d entries",
				p.Name, prev, st.IPC(), rob)
		}
		prev = st.IPC()
	}
	return nil
}

// CheckCacheMonotonic simulates the profile under a growing L1D and
// requires misses to respond monotonically (never more misses with strictly
// more capacity at equal latency) and IPC not to regress.
func CheckCacheMonotonic(p synth.Profile, n int, warmup uint64) error {
	instrs, err := p.GenerateBatch(n)
	if err != nil {
		return err
	}
	opts := core.OptionsAll()
	sets := []int{16, 64, 256}
	prevMisses := ^uint64(0)
	prevIPC := -1.0
	for _, s := range sets {
		cfg := develCfg(opts)
		cfg.Hierarchy.L1D.Sets = s
		st, err := simulate(instrs, opts, cfg, warmup)
		if err != nil {
			return fmt.Errorf("%s l1d-sets=%d: %w", p.Name, s, err)
		}
		if st.L1D.Misses > prevMisses {
			return fmt.Errorf("%s: L1D misses rose from %d to %d when the cache grew to %d sets",
				p.Name, prevMisses, st.L1D.Misses, s)
		}
		if st.IPC() < prevIPC {
			return fmt.Errorf("%s: IPC fell from %.4f to %.4f when the L1D grew to %d sets",
				p.Name, prevIPC, st.IPC(), s)
		}
		prevMisses, prevIPC = st.L1D.Misses, st.IPC()
	}
	return nil
}
