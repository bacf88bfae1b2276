package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// requester answers one request against the store under dir: the rebase
// binary for the end-to-end runs, the in-process composition for the
// traced runs.
type requester interface {
	do(s spec, dir string, compute bool) ([]byte, error)
}

type procRequester struct {
	e  *env
	ps *procStats
}

func (p procRequester) do(s spec, dir string, _ bool) ([]byte, error) {
	return p.e.runRebase(p.ps, s.args(dir)...)
}

const (
	// setupReps is how many times a run sets its start state up; setup_s
	// is the median.
	setupReps = 25
	// warmPassSeconds and serveRoundSeconds are what one warm pass over
	// the request universe and one serve daemon take on a 2-CPU Xeon:
	// --seconds buys that many of them, so a given --seconds always sends
	// the same requests, however fast the program is.
	warmPassSeconds   = 2
	serveRoundSeconds = 1.25
	// serveRepeats is how many times serve resubmits each job once the
	// daemon has computed it. A repeat takes ~0.2 ms, so one would sample
	// the memory tier for a few milliseconds of the daemon's life, and a
	// stall that short would move every hit; ten cost under 0.1 s a
	// daemon.
	serveRepeats = 10
)

// units returns how many units of work that take per seconds each fit in
// --seconds, but at least least.
func (b *bench) units(per float64, least int) int {
	return max(int(math.Ceil(b.seconds.Seconds()/per)), least)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// probe is the set-up check that the program starts and answers.
var probe = spec{Exp: "table1", Step: 1}

// bench is one run of one workload.
type bench struct {
	e       *env
	master  string // the populated store the run copies from
	seed    uint64
	seconds time.Duration // sets how much work warm and serve do
	req     requester
	daemon  daemon
	rec     *recorder // nil for an end-to-end run
	ctr     *counters // nil for an end-to-end run
}

// outcome is what one run measured.
type outcome struct {
	attempted, failed int
	setup             []time.Duration
	wall              time.Duration
	ops, hits         []float64 // latencies in ms
	storeBytes        int64
	proc              procStats
}

// check counts one request: it failed if it returned an error (a non-zero
// exit, a job error event) or its output differs from the pinned one.
func (o *outcome) check(s spec, out []byte, err error) {
	o.attempted++
	if err == nil {
		err = checkOutput(s, out)
	}
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %v\n", err)
	}
}

// timed runs one request and records its latency in ms.
func (b *bench) timed(o *outcome, s spec, dir string, compute bool) float64 {
	t := time.Now()
	out, err := b.req.do(s, dir, compute)
	ms := millis(time.Since(t))
	o.check(s, out, err)
	return ms
}

// removeStore removes dir, the store an earlier set-up or round left, and
// waits until the disk has taken the removal and everything else pending,
// so that the set-up timed next neither pays for clean-up nor queues behind
// it.
func removeStore(dir string) error {
	err := os.RemoveAll(dir)
	syscall.Sync()
	return err
}

// fresh makes dir, which must not exist, a new store: empty, or with the
// given parts of the master store hard-linked in ("." links all of it).
func (b *bench) fresh(dir string, link ...string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, part := range link {
		if err := linkTree(filepath.Join(b.master, part), filepath.Join(dir, part)); err != nil {
			return err
		}
	}
	return nil
}

// setUp reaches the start state setupReps times: a fresh store, and the
// program opening it and answering the probe. Only the program's part is
// timed: the copy is the harness's, and its time is mostly the shared
// disk's journal, which swings several-fold with other tenants' I/O.
func (b *bench) setUp(o *outcome, dir string, link ...string) error {
	for i := 0; i < setupReps; i++ {
		if err := removeStore(dir); err != nil {
			return err
		}
		if err := b.fresh(dir, link...); err != nil {
			return err
		}
		t := time.Now()
		out, err := b.e.runRebase(&procStats{}, probe.args(dir)...)
		o.setup = append(o.setup, time.Since(t))
		o.check(probe, out, err)
	}
	return nil
}

func (b *bench) store() string { return filepath.Join(b.e.runDir, "store") }

// sweep is the cold and resim workloads: one `-exp all -step 9` over a
// fresh store, with the master's slabs linked in for resim.
func (b *bench) sweep(link ...string) (*outcome, error) {
	o := &outcome{}
	dir := b.store()
	if err := b.setUp(o, dir, link...); err != nil {
		return nil, err
	}
	s := spec{Exp: populateExp, Step: populateStep}
	_, done := b.rec.enter("report.run")
	start := time.Now()
	o.ops = append(o.ops, b.timed(o, s, dir, true))
	o.wall = time.Since(start)
	done(nil)
	var err error
	o.storeBytes, err = dirBytes(dir)
	return o, err
}

// warm sends the seeded request sequence to a copy of the populated store;
// every request is an op.
func (b *bench) warm() (*outcome, error) {
	o := &outcome{}
	dir := b.store()
	if err := b.setUp(o, dir, "."); err != nil {
		return nil, err
	}
	universe := len(expSpecs()) + len(querySpecs())
	seq := warmSequence(b.seed, b.units(warmPassSeconds, ceilDiv(minSamples, universe)))
	_, done := b.rec.enter("report.run")
	start := time.Now()
	for _, s := range seq {
		o.ops = append(o.ops, b.timed(o, s, dir, false))
	}
	o.wall = time.Since(start)
	done(nil)
	var err error
	o.storeBytes, err = dirBytes(dir)
	return o, err
}

// serve starts a daemon over a fresh copy of the populated store and
// submits every job of a seeded list once, and serveRepeats times again:
// first submissions miss the daemon's memory tier (ops), repeats
// hit it (hits). Each further round does the same with a new daemon on a
// new copy. Rounds past the last one that submits only set up, so that
// setup_s is a median of at least setupReps daemons.
func (b *bench) serve() (*outcome, error) {
	o := &outcome{}
	dir := b.store()
	rounds := b.units(serveRoundSeconds, ceilDiv(minSamples, len(expSpecs())))
	for round := 0; round < max(rounds, setupReps); round++ {
		if err := removeStore(dir); err != nil {
			return nil, err
		}
		if err := b.fresh(dir, "."); err != nil {
			return nil, err
		}
		t := time.Now()
		url, err := b.daemon.start(dir)
		o.setup = append(o.setup, time.Since(t))
		if err != nil {
			// A daemon that does not come up fails the run's requests.
			o.check(spec{}, nil, err)
			break
		}
		if round < rounds {
			if err := b.serveRound(o, url, serveList(b.seed, round)); err != nil {
				b.daemon.stop()
				return nil, err
			}
		}
		strays := b.ctr.strayCount()
		if err := b.daemon.stop(); err != nil {
			return nil, fmt.Errorf("stop daemon: %w", err)
		}
		if n := b.ctr.strayCount() - strays; n > 0 {
			// Written back as the daemon drained: a cell computed for one
			// of the round's jobs.
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: daemon wrote %d cells on shutdown\n", n)
		}
	}
	var err error
	o.storeBytes, err = dirBytes(dir)
	return o, err
}

// serveRound submits every job of list to the daemon at url once, and
// serveRepeats times again. In a traced run, a submission fails if the daemon missed a cell
// on disk or wrote one: it computed a cell the populated store holds.
func (b *bench) serveRound(o *outcome, url string, list []spec) error {
	send := func(s spec) float64 {
		strays := b.ctr.strayCount()
		_, sdone := b.rec.enter("server.submit")
		t := time.Now()
		out, err := submit(url, s)
		ms := millis(time.Since(t))
		sdone(nil)
		if n := b.ctr.strayCount() - strays; n > 0 && err == nil {
			err = fmt.Errorf("%s: the daemon missed or wrote %d cells on disk", s, n)
		}
		o.check(s, out, err)
		return ms
	}
	if b.rec == nil {
		// A round allocates a few MB in the harness; without collections
		// it adds no pauses to the client-side latencies. Outside the
		// rounds the collector runs: a heap left to grow slows the link
		// copies and process starts of the set-ups.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	repeat := func(s spec) {
		for i := 0; i < serveRepeats; i++ {
			o.hits = append(o.hits, send(s))
		}
	}
	_, done := b.rec.enter("report.run")
	start := time.Now()
	// Each job is repeated after the next first submission, so the hits
	// spread over the whole round, as the ops do, and none races the
	// write-back of the job it repeats.
	for i, s := range list {
		o.ops = append(o.ops, send(s))
		if i > 0 {
			repeat(list[i-1])
		}
	}
	repeat(list[len(list)-1])
	o.wall += time.Since(start)
	done(nil)
	if b.ctr == nil {
		return nil
	}
	st, err := status(url)
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	b.ctr.add(func(c *counters) {
		c.jobsComputed += st.JobsComputed
		c.jobsFromCache += st.JobsFromCache
		for _, t := range st.Tiers {
			switch t.Name {
			case "memory":
				c.memHits += t.Hits
			case "disk":
				c.diskHits += t.Hits
			}
		}
	})
	return nil
}
