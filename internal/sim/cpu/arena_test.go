package cpu

import (
	"testing"

	"tracerebase/internal/champtrace"
)

// arenaCapOf returns the uop arena capacity of a pipeline.
func arenaCapOf(p *Pipeline) int { return len(p.arena) }

// TestArenaWraparound retires far more instructions than the arena has
// slots, so allocation and retirement wrap the ring many times, with a
// dependency chain that keeps the ROB full across every wrap boundary.
func TestArenaWraparound(t *testing.T) {
	cfg := testConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap := arenaCapOf(p)
	n := 20*cap + 37 // many wraps, deliberately not slot-aligned
	instrs := make([]*champtrace.Instruction, n)
	for i := range instrs {
		// Each instruction reads the previous one's destination, so
		// dependency refs are live right up to the wrap boundary.
		instrs[i] = mkALU(0x400000+uint64(i%1024)*4, []uint8{uint8(40 + (i+7)%8)}, uint8(40+i%8))
	}
	st, err := p.Run(champtrace.NewSliceSource(instrs), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != uint64(n) {
		t.Fatalf("retired %d instructions, want %d", st.Instructions, n)
	}
	if p.robCount != 0 || p.ftqLen != 0 || p.decqLen != 0 {
		t.Fatalf("queues not drained: rob=%d ftq=%d decq=%d", p.robCount, p.ftqLen, p.decqLen)
	}
}

// TestArenaFillToCapacity blocks retirement behind a long-latency load so
// the ROB (and with it the arena's live region) fills completely, then
// drains across the ring boundary.
func TestArenaFillToCapacity(t *testing.T) {
	cfg := testConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 4 * arenaCapOf(p)
	instrs := make([]*champtrace.Instruction, n)
	for i := range instrs {
		if i%cfg.ROBSize == 0 {
			// A cold load to a new page stalls retirement long enough
			// for the back of the window to fill.
			instrs[i] = mkLoad(0x400000+uint64(i%1024)*4, uint64(0x9000000+i*4096), 10, uint8(40+i%8))
		} else {
			instrs[i] = mkALU(0x400000+uint64(i%1024)*4, []uint8{10}, uint8(40+i%8))
		}
	}
	st, err := p.Run(champtrace.NewSliceSource(instrs), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != uint64(n) {
		t.Fatalf("retired %d instructions, want %d", st.Instructions, n)
	}
}

// TestStaleGenerationReady exercises rename-time operand resolution against
// the generation-tag staleness rule: a producer ref whose sequence tag no
// longer matches the slot's occupant names a retired-and-recycled producer
// and imposes nothing; a live, unexecuted producer gets a consumer edge; an
// executed producer contributes its completion cycle.
func TestStaleGenerationReady(t *testing.T) {
	const cycle = 10
	base, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	lap := uint64(arenaCapOf(base))
	// rename dispatches a consumer (seq 6, reading reg 60 in source slot 0)
	// whose reg-60 producer is the given occupant of slot 5.
	rename := func(producer uop) (*Pipeline, *uop, *uop) {
		p, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		p.cycle = cycle
		producer.consHead = nilLink
		p.arena[5] = producer
		p.regProducer[60] = 5
		p.seq = 6
		c := p.at(6)
		*c = uop{seq: 6, consHead: nilLink}
		c.srcRegs[0] = 60
		p.decq[0] = 6
		p.decqLen = 1
		p.dispatch()
		if p.robCount != 1 {
			t.Fatal("consumer not dispatched")
		}
		return p, p.at(5), c
	}
	isReady := func(p *Pipeline) bool { return p.ready[0]&(1<<6) != 0 }

	// Slot 5 recycled: it now holds the uop with seq 5+lap. The ref's tag
	// mismatches, so the original producer retired — ready at dispatch.
	p, prod, c := rename(uop{seq: 5 + lap})
	if c.waiting != 0 || c.readyAt != 0 || !isReady(p) || prod.consHead != nilLink {
		t.Fatalf("stale producer: waiting=%d readyAt=%d ready=%v edge=%#x, want ready with no edge",
			c.waiting, c.readyAt, isReady(p), prod.consHead)
	}

	// Same slot, matching generation, not yet executed: the consumer waits
	// on one edge from the producer, with no horizon of its own.
	p, prod, c = rename(uop{seq: 5})
	if c.waiting != 1 || prod.consHead != 6<<srcBits || isReady(p) || p.nextDue() != ^uint64(0) {
		t.Fatalf("live producer: waiting=%d edge=%#x ready=%v due=%d, want one edge from slot 6 source 0",
			c.waiting, prod.consHead, isReady(p), p.nextDue())
	}
	// Executing the producer wakes the consumer at its completion cycle.
	p.execute(prod)
	if c.waiting != 0 || c.readyAt != cycle+1 || prod.consHead != nilLink || p.nextDue() != cycle+1 {
		t.Fatalf("after execute: waiting=%d readyAt=%d edge=%#x due=%d, want scheduled for %d",
			c.waiting, c.readyAt, prod.consHead, p.nextDue(), cycle+1)
	}

	// Matching generation, executed with completion in the future: no
	// edge, readyAt is the completion cycle, and the consumer waits on the
	// timing wheel.
	p, prod, c = rename(uop{seq: 5, completed: true, complete: 42})
	if c.waiting != 0 || c.readyAt != 42 || isReady(p) || prod.consHead != nilLink || p.nextDue() != 42 {
		t.Fatalf("executing producer: waiting=%d readyAt=%d ready=%v due=%d, want on the wheel for 42",
			c.waiting, c.readyAt, isReady(p), p.nextDue())
	}

	// Matching generation, completed in the past: ready at dispatch.
	p, _, c = rename(uop{seq: 5, completed: true, complete: 3})
	if c.waiting != 0 || !isReady(p) {
		t.Fatalf("completed producer: waiting=%d ready=%v, want ready", c.waiting, isReady(p))
	}
}

// TestAncientProducerAfterWrap runs a trace where one early instruction
// writes a register that every later instruction reads. Once the writer's
// slot is recycled the renamed ref goes stale, and consumers must still
// issue (the retired producer is by definition complete).
func TestAncientProducerAfterWrap(t *testing.T) {
	cfg := testConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 8 * arenaCapOf(p)
	instrs := make([]*champtrace.Instruction, n)
	instrs[0] = mkALU(0x400000, []uint8{10}, 60) // sole writer of reg 60
	for i := 1; i < n; i++ {
		instrs[i] = mkALU(0x400000+uint64(i%1024)*4, []uint8{60}, uint8(40+i%4))
	}
	st, err := p.Run(champtrace.NewSliceSource(instrs), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != uint64(n) {
		t.Fatalf("retired %d instructions, want %d", st.Instructions, n)
	}
}
