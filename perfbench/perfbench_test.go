package main

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"tracerebase/internal/experiments"
	"tracerebase/internal/resultcache"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		enough bool
	}{
		{100, 0.9, 90, true}, // exactly ten samples above
		{99, 0.9, 90, false}, // nine above
		{20, 0.5, 10, true},  // ten above the median
		{19, 0.5, 10, false}, // nine above
		{1, 0.5, 1, false},   // a single op
		{1000, 0.9, 900, true},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.enough {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.enough)
		}
	}
	// An under-sampled percentile is reported as the maximum.
	if v, ok := reportedPercentile(seq(99), 0.9); v != 99 || ok {
		t.Errorf("reportedPercentile(n=99, p90) = %v, %v; want the maximum 99, false", v, ok)
	}
	if v, ok := reportedPercentile(seq(100), 0.9); v != 90 || !ok {
		t.Errorf("reportedPercentile(n=100, p90) = %v, %v; want 90, true", v, ok)
	}
}

func TestSelfTimeSubtractsNestedAndOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "report.op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "tracestore.get", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 2, Name: "core.convert", Start: 15 * ms, End: 20 * ms},
		{ID: 4, Parent: 1, Name: "sim.run", Start: 30 * ms, End: 60 * ms},        // overlaps span 2
		{ID: 5, Parent: 1, Name: "sim.run", Start: 90 * ms, End: 120 * ms},       // ends after its parent
		{ID: 6, Parent: 1, Name: "sim.run", Start: 200 * ms, End: 210 * ms},      // outside its parent
		{ID: 7, Parent: 3, Name: "synth.generate", Start: 15 * ms, End: 20 * ms}, // covers all of span 3
	}
	want := map[int]time.Duration{
		1: 100*ms - 50*ms - 10*ms, // children cover [10,60] and [90,100]
		2: 30*ms - 5*ms,
		3: 0,
		4: 30 * ms,
		5: 30 * ms,
		6: 10 * ms,
		7: 5 * ms,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderParentsCallbackSpansUnderCurrent(t *testing.T) {
	r := newRecorder()
	op, done := r.enter("report.op")
	inner := r.begin("resultcache.get", -1) // as the timing backend does
	r.end(inner, nil)
	done(nil)
	after := r.begin("resultcache.get", -1)
	r.end(after, nil)
	if inner.Parent != op.ID || after.Parent != 0 {
		t.Errorf("parents = %d, %d; want %d, 0", inner.Parent, after.Parent, op.ID)
	}
	var untraced *recorder // an end-to-end run records nothing
	s, end := untraced.enter("report.op")
	end(nil)
	if s != nil || untraced.begin("sim.run", 0) != nil {
		t.Error("nil recorder recorded a span")
	}
}

// cellKeys returns the result-cache keys of every cell s needs.
func cellKeys(t *testing.T, s spec) map[resultcache.Key]bool {
	t.Helper()
	cfg := experiments.SweepConfig{Instructions: instructions, Warmup: warmup}
	secs, err := sections(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[resultcache.Key]bool{}
	for _, sec := range secs {
		for _, g := range sec.groups {
			for _, c := range g.cells {
				keys[c.key] = true
			}
		}
	}
	return keys
}

func TestEverySpecIsInsideThePopulatedCells(t *testing.T) {
	populated := cellKeys(t, spec{Exp: populateExp, Step: populateStep})
	if len(populated) != 270 {
		t.Fatalf("populated store holds %d cells, want 270", len(populated))
	}
	specs := expSpecs()
	for seed := uint64(1); seed <= 10; seed++ {
		specs = append(specs, warmSequence(seed, 2)...)
		specs = append(specs, serveList(seed, int(seed))...)
	}
	for _, s := range specs {
		if _, ok := pins[s.String()]; !ok {
			t.Errorf("%s has no pinned output", s)
		}
		if s.Query != "" {
			continue // queries only read the store
		}
		keys := cellKeys(t, s)
		if len(keys) == 0 {
			t.Errorf("%s needs no cells", s)
		}
		for k := range keys {
			if !populated[k] {
				t.Errorf("%s needs cell %s, which the populated store lacks", s, k)
				break
			}
		}
	}
}

func TestSequencesFollowTheSeed(t *testing.T) {
	if !reflect.DeepEqual(warmSequence(7, 3), warmSequence(7, 3)) {
		t.Error("warm sequence differs for one seed")
	}
	if reflect.DeepEqual(warmSequence(7, 3), warmSequence(8, 3)) {
		t.Error("warm sequence ignores the seed")
	}
	// Seeds change the order, never which requests are sent.
	count := func(seq []spec) map[spec]int {
		m := map[spec]int{}
		for _, s := range seq {
			m[s]++
		}
		return m
	}
	if !reflect.DeepEqual(count(warmSequence(7, 3)), count(warmSequence(8, 3))) {
		t.Error("warm sequences of two seeds send different requests")
	}
	if reflect.DeepEqual(serveList(7, 0), serveList(8, 0)) {
		t.Error("serve list ignores the seed")
	}
}

func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	// `rebase -exp table1` prints Table 1 and a blank line.
	var out bytes.Buffer
	experiments.RenderTable1(&out)
	out.WriteString("\n")
	good := out.Bytes()

	var o outcome
	o.check(probe, good, nil)
	if o.attempted != 1 || o.failed != 0 {
		t.Fatalf("pinned output: attempted %d, failed %d; want 1, 0", o.attempted, o.failed)
	}
	for _, i := range []int{0, len(good) / 2, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[i] ^= 1
		o.check(probe, bad, nil)
	}
	o.check(probe, good, errors.New("exit status 1"))
	if o.attempted != 5 || o.failed != 4 {
		t.Errorf("attempted %d, failed %d; want 5, 4", o.attempted, o.failed)
	}
}

func TestQueryPinIgnoresOnlyTheScanTrailer(t *testing.T) {
	body := "  variant  n\n  All_imps  21\n"
	trailer := "  -- 1 rows; blocks 0/7 pruned, 7 scanned; read 9705 of 72473 bytes\n"
	a := stripQueryTrailer([]byte(body + trailer))
	b := stripQueryTrailer([]byte(body + "  -- 1 rows; blocks 6/9 pruned, 3 scanned; read 1 of 2 bytes\n"))
	if !bytes.Equal(a, b) || string(a) != body {
		t.Errorf("stripped %q and %q, want %q", a, b, body)
	}
}

// TestTracedRunMatchesTheProgram computes a small request in process
// through the benchmark's own calls into the layers, then answers it again
// from the store it filled: both outputs must be the program's pinned
// bytes, and only the first may generate, convert or simulate.
func TestTracedRunMatchesTheProgram(t *testing.T) {
	dir := t.TempDir()
	s := spec{Exp: "table2", Step: 45}
	for i, compute := range []bool{true, false} {
		p := &inproc{rec: newRecorder(), ctr: &counters{}}
		out, err := p.do(s, dir, compute)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkOutput(s, out); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		c := p.ctr
		if computed := c.synthRecords > 0 && c.coreRecords > 0 && c.simInstructions > 0 && c.slabWritten > 0; computed != compute {
			t.Errorf("request %d: synth %d, core %d, sim %d instructions, %d slab bytes written; want work only when computing",
				i, c.synthRecords, c.coreRecords, c.simInstructions, c.slabWritten)
		}
		// The first request renders from the cells the cache holds in
		// memory; the second opens the store afresh and reads them back.
		if hit := c.cacheHits > 0; hit == compute {
			t.Errorf("request %d: %d cache tier hits", i, c.cacheHits)
		}
		names := map[string]bool{}
		for _, sp := range p.rec.snapshot() {
			names[sp.Name] = true
		}
		for _, want := range []string{"report.op", "tracestore.open", "resultcache.get", "expstore.open", "experiments.table2", "experiments.render"} {
			if !names[want] {
				t.Errorf("request %d: no %s span", i, want)
			}
		}
		if names["sim.run"] != compute {
			t.Errorf("request %d: sim.run span present = %v, want %v", i, names["sim.run"], compute)
		}
	}
}

// TestInProcessDaemonServesThePinnedBytes runs the traced serve path on a
// small store: a first submission rendered from cells, then a repeat.
func TestInProcessDaemonServesThePinnedBytes(t *testing.T) {
	dir := t.TempDir()
	s := spec{Exp: "table2", Step: 45}
	if _, err := (&inproc{}).do(s, dir, true); err != nil {
		t.Fatal(err)
	}
	d := &inprocDaemon{rec: newRecorder(), ctr: &counters{}}
	url, err := d.start(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		out, err := submit(url, s)
		if err == nil {
			err = checkOutput(s, out)
		}
		if err != nil {
			t.Errorf("submission %d: %v", i, err)
		}
	}
	st, err := status(url)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
	if st.JobsComputed != 1 || st.JobsFromCache != 1 {
		t.Errorf("jobs computed %d, from cache %d; want 1, 1", st.JobsComputed, st.JobsFromCache)
	}
	if d.ctr.strays != 0 {
		t.Errorf("%d disk misses or cell writes over a store that holds every cell", d.ctr.strays)
	}
}

// TestCellsTheProgramComputesFailTheRequest answers a request over an
// empty store without the benchmark's compute: the program computes every
// cell itself, in process and in the daemon, and both requests must fail.
func TestCellsTheProgramComputesFailTheRequest(t *testing.T) {
	s := spec{Exp: "table2", Step: 45}
	p := &inproc{rec: newRecorder(), ctr: &counters{}}
	if _, err := p.do(s, t.TempDir(), false); err == nil {
		t.Error("in process: a request whose cells the program computed did not fail")
	}

	d := &inprocDaemon{rec: newRecorder(), ctr: &counters{}}
	url, err := d.start(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{rec: d.rec, ctr: d.ctr}
	o := &outcome{}
	err = b.serveRound(o, url, []spec{s})
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 {
		t.Errorf("daemon: %d submissions, none failed, though the daemon computed every cell", o.attempted)
	}
}

// TestInProcessDaemonStopsRightAfterStart is serve's set-up-only round:
// a daemon stopped as soon as it started must exit.
func TestInProcessDaemonStopsRightAfterStart(t *testing.T) {
	d := &inprocDaemon{rec: newRecorder(), ctr: &counters{}}
	if _, err := d.start(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	stopped := make(chan error, 1)
	go func() { stopped <- d.stop() }()
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("daemon still serving a minute after stop")
	}
}
