package cpu

import (
	"testing"

	"tracerebase/internal/champtrace"
)

// Scheduler edge cases. Each scenario's statistics are pinned to values
// recorded with the earlier rescan scheduler (every cycle re-checked each
// dispatched-but-unissued uop's producers), so the wake-up scheduler must
// reproduce its timing exactly, not merely retire everything.

// wrapTrace mixes cold loads with dependent and independent ALU work so the
// ready set is scattered across the ROB, which wraps the arena ring many
// times over the run.
func wrapTrace(n int) []*champtrace.Instruction {
	out := make([]*champtrace.Instruction, n)
	for i := range out {
		ip := 0x400000 + uint64(i%512)*4
		switch {
		case i%16 == 0:
			out[i] = mkLoad(ip, uint64(0x10000000+i*4096), 10, uint8(20+i%4))
		case i%3 == 0:
			out[i] = mkALU(ip, []uint8{uint8(20 + i%4)}, uint8(40+i%8))
		default:
			out[i] = mkALU(ip, []uint8{10}, uint8(48+i%8))
		}
	}
	return out
}

// fanoutTrace: each block is a pointer-chasing load, then a load that
// depends on it (so it stays unexecuted while its consumers rename), then
// 120 consumers that read the second load's result in all four source slots.
func fanoutTrace(blocks int) []*champtrace.Instruction {
	var out []*champtrace.Instruction
	for b := 0; b < blocks; b++ {
		ip := uint64(0x400000)
		out = append(out, mkLoad(ip, uint64(0x20000000+b*8192), 10, 10))
		out = append(out, mkLoad(ip+4, uint64(0x30000000+b*8192), 10, 11))
		for i := 0; i < 120; i++ {
			in := &champtrace.Instruction{IP: ip + 8 + uint64(i)*4}
			for s := range in.SrcRegs {
				in.SrcRegs[s] = 11
			}
			in.AddDestReg(uint8(40 + i%8))
			out = append(out, in)
		}
	}
	return out
}

// chaseTrace interleaves a serialized miss chain with its consumers and
// independent work.
func chaseTrace(n int) []*champtrace.Instruction {
	out := make([]*champtrace.Instruction, n)
	for i := range out {
		ip := 0x400000 + uint64(i%256)*4
		switch i % 8 {
		case 0:
			out[i] = mkLoad(ip, uint64(0x40000000+i*4096), 10, 10)
		case 1, 2:
			out[i] = mkALU(ip, []uint8{10}, uint8(40+i%8))
		default:
			out[i] = mkALU(ip, []uint8{12}, uint8(48+i%8))
		}
	}
	return out
}

// hitChainTrace is a dependent chain of loads and ALU ops over a few
// resident lines: with a zero-latency L1D, a load completes in the cycle it
// issues and its consumer can issue in the same cycle.
func hitChainTrace(n int) []*champtrace.Instruction {
	out := make([]*champtrace.Instruction, n)
	for i := range out {
		ip := 0x400000 + uint64(i%128)*4
		switch i % 4 {
		case 0:
			out[i] = mkLoad(ip, uint64(0x50000000+(i%32)*64), 11, 10)
		case 1:
			out[i] = mkLoad(ip, uint64(0x50000000+((i+7)%32)*64), 10, 11)
		case 2:
			out[i] = mkALU(ip, []uint8{11}, 12)
		default:
			out[i] = mkALU(ip, []uint8{12, 10}, 11)
		}
	}
	return out
}

// checkPinned runs cfg over instrs with skipping on and off, requires the
// two to agree on every counter but the skip telemetry, and compares the
// skipping run with the pinned statistics.
func checkPinned(t *testing.T, cfg Config, instrs []*champtrace.Instruction, want Stats) {
	t.Helper()
	got := run(t, cfg, instrs)
	cfg.NoCycleSkip = true
	slow := run(t, cfg, instrs)
	slow.SkippedCycles, slow.CycleSkips = got.SkippedCycles, got.CycleSkips
	if slow != got {
		t.Errorf("skip changes stats:\n skip   %+v\n noskip %+v", got, slow)
	}
	if got != want {
		t.Errorf("stats drifted from the pinned values:\n got  %+v\n want %+v", got, want)
	}
}

func TestSchedReadyScanWraps(t *testing.T) {
	cfg := testConfig()
	cfg.IssueWidth = 2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, cfg, wrapTrace(12*arenaCapOf(p)+37), pinWrap)

	// Directly: the ROB holds the last two slots of the ring and the first
	// two; with the head unready, the two oldest ready uops are the ones
	// either side of the wrap, not the lowest-numbered slots.
	n := uint64(arenaCapOf(p))
	p.retired = 3*n - 3
	p.seq = p.retired + 4
	p.robCount = 4
	for s := p.retired + 1; s <= p.seq; s++ {
		u := p.at(uref(s))
		*u = uop{seq: s, consHead: nilLink}
		if s != p.retired+1 {
			p.schedule(uref(s)&p.arenaMask, u)
		}
	}
	p.issue()
	for s := p.retired + 1; s <= p.seq; s++ {
		if want := s == p.retired+2 || s == p.retired+3; p.at(uref(s)).completed != want {
			t.Errorf("slot %d issued=%v, want %v", uref(s)&p.arenaMask, !want, want)
		}
	}
}

func TestSchedFanout(t *testing.T) {
	checkPinned(t, testConfig(), fanoutTrace(20), pinFanout)
}

func TestSchedLatencyBeyondWheel(t *testing.T) {
	cfg := testConfig()
	cfg.Hierarchy.DRAMLatency = 3000
	checkPinned(t, cfg, chaseTrace(2000), pinLongDRAM)
}

func TestSchedZeroLatencyL1D(t *testing.T) {
	cfg := testConfig()
	cfg.Hierarchy.L1D.Latency = 0
	checkPinned(t, cfg, hitChainTrace(4000), pinZeroL1D)
}

// TestMultiRerunAfterTruncation truncates a two-core run while core 0 has
// uops waiting on the timing wheel, then reruns the system: core 0's clock
// realigns more than a wheel lap ahead to core 1's (a memory-bound chase),
// and every carried-over uop must still issue and retire with the pinned
// timing.
func TestMultiRerunAfterTruncation(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := []champtrace.Source{
		champtrace.NewSliceSource(wrapTrace(3000)),
		champtrace.NewSliceSource(chaseTrace(3000)),
	}
	if _, err := m.Run(first, 0, 1000); err != nil {
		t.Fatal(err)
	}
	c0, c1 := m.Core(0), m.Core(1)
	if c0.nextDue() == ^uint64(0) || c0.cycle+wheelSize >= c1.cycle {
		t.Fatalf("core 0 must stop more than a wheel lap first with uops on the wheel: due %d, cycles %d vs %d",
			c0.nextDue(), c0.cycle, c1.cycle)
	}
	second := []champtrace.Source{
		champtrace.NewSliceSource(fanoutTrace(10)),
		champtrace.NewSliceSource(wrapTrace(500)),
	}
	out, err := m.Run(second, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		c := m.Core(i)
		if c.robCount != 0 || c.retired != c.seq {
			t.Errorf("core %d: %d uops left in the ROB, retired %d of %d", i, c.robCount, c.retired, c.seq)
		}
		if out[i] != pinRerun[i] {
			t.Errorf("core %d stats drifted from the pinned values:\n got  %+v\n want %+v", i, out[i], pinRerun[i])
		}
	}
}

// Pins recorded with the rescan scheduler.
var (
	pinWrap     = Stats{Instructions: 3109, Cycles: 8769, Loads: 195, L1I: CacheStat{Accesses: 195, Misses: 32}, L1D: CacheStat{Accesses: 195, Misses: 195}, L2: CacheStat{Accesses: 227, Misses: 227}, LLC: CacheStat{Accesses: 227, Misses: 227}, SkippedCycles: 6715, CycleSkips: 184}
	pinFanout   = Stats{Instructions: 2440, Cycles: 6217, Loads: 40, L1I: CacheStat{Accesses: 160, Misses: 8}, L1D: CacheStat{Accesses: 40, Misses: 40}, L2: CacheStat{Accesses: 48, Misses: 48}, LLC: CacheStat{Accesses: 48, Misses: 48}, SkippedCycles: 5484, CycleSkips: 24}
	pinLongDRAM = Stats{Instructions: 2000, Cycles: 761799, Loads: 250, L1I: CacheStat{Accesses: 125, Misses: 16}, L1D: CacheStat{Accesses: 250, Misses: 250}, L2: CacheStat{Accesses: 266, Misses: 266}, LLC: CacheStat{Accesses: 266, Misses: 266}, SkippedCycles: 760504, CycleSkips: 254}
	pinZeroL1D  = Stats{Instructions: 4000, Cycles: 4079, Loads: 2000, L1I: CacheStat{Accesses: 250, Misses: 8}, L1D: CacheStat{Accesses: 2000, Misses: 8}, L2: CacheStat{Accesses: 16, Misses: 16}, LLC: CacheStat{Accesses: 16, Misses: 16}, SkippedCycles: 2005, CycleSkips: 10}
	pinRerun    = [2]Stats{
		{Instructions: 1412, Cycles: 27767, Loads: 20, L1I: CacheStat{Accesses: 80}, L1D: CacheStat{Accesses: 24, Misses: 24}, L2: CacheStat{Accesses: 24, Misses: 24}, LLC: CacheStat{Accesses: 24, Misses: 24}, SkippedCycles: 2529, CycleSkips: 22},
		{Instructions: 692, Cycles: 6824, Loads: 32, L1I: CacheStat{Accesses: 32, Misses: 16}, L1D: CacheStat{Accesses: 55, Misses: 55}, L2: CacheStat{Accesses: 71, Misses: 71}, LLC: CacheStat{Accesses: 71, Misses: 55}, SkippedCycles: 6106, CycleSkips: 66},
	}
)
