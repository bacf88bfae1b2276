// Command perfbench is the repository's benchmark: it runs the rebase
// binary built from the checkout on one named workload and prints every
// end-to-end metric, or, with --trace 1, runs the same workload through
// the program's packages in process and prints every per-layer metric.
// Run it from the repository root through the wrapper, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all    # every workload, both modes
//
// See perfbench/README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

var workloadNames = []string{"cold", "resim", "warm", "serve"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Uint64("seed", 1, "seed of the warm and serve request sequences")
		secs     = flag.Int("seconds", 10, "how much work warm and serve do: about this many seconds of requests on a 2-CPU Xeon")
		trace    = flag.Int("trace", 0, "1 runs the traced in-process run and prints the per-layer metrics")
		build    = flag.String("build-dir", ".bench_build", "directory holding the built rebase binary and the populated store")
	)
	flag.Parse()
	if err := run(*workload, *seed, *secs, *trace, *build); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, secs, trace int, build string) error {
	if secs < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if workload != "all" && !slices.Contains(workloadNames, workload) {
		return fmt.Errorf("unknown workload %q (want one of %s, or all)", workload, strings.Join(workloadNames, ", "))
	}
	e, err := newEnv(build)
	if err != nil {
		return err
	}
	if err := e.ensureMaster(); err != nil {
		return err
	}
	if workload == "all" {
		return runAll(e, seed, secs)
	}
	res, err := runOne(e, workload, seed, secs, trace == 1)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	return nil
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // how a percentile was taken, for the human-readable lines
}

// result is one run's report.
type result struct {
	Record    runRecord
	Attempted int
	Failed    int
	Metrics   []metric
}

func runOne(e *env, workload string, seed uint64, secs int, traced bool) (*result, error) {
	b := &bench{e: e, master: e.master, seed: seed, seconds: time.Duration(secs) * time.Second}
	ps := &procStats{}
	if traced {
		if err := e.ensureTracedMaster(); err != nil {
			return nil, err
		}
		b.master = e.tracedMaster
		b.rec, b.ctr = newRecorder(), &counters{}
		b.req = &inproc{rec: b.rec, ctr: b.ctr}
		b.daemon = &inprocDaemon{rec: b.rec, ctr: b.ctr}
	} else {
		b.req = procRequester{e: e, ps: ps}
		b.daemon = &procDaemon{e: e, ps: ps}
	}
	if err := os.RemoveAll(e.runDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.runDir)
	// Let the disk finish what earlier runs left it (writeback, the
	// discards of their deleted stores) before anything is timed.
	syscall.Sync()

	var o *outcome
	var err error
	switch workload {
	case "cold":
		o, err = b.sweep()
	case "resim":
		o, err = b.sweep("slabs")
	case "warm":
		o, err = b.warm()
	case "serve":
		o, err = b.serve()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	o.proc = *ps

	res := &result{Record: e.newRunRecord(), Attempted: o.attempted, Failed: o.failed}
	res.Record.Workload, res.Record.Seed, res.Record.Seconds, res.Record.Trace = workload, seed, secs, traced
	if traced {
		if workload == "resim" && (b.ctr.slabMisses > 0 || b.ctr.synthRecords > 0) {
			// The resim store holds every slab the request needs; a miss
			// means the benchmark's slab keys no longer match the program's.
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: resim missed %d pre-populated slabs\n", b.ctr.slabMisses)
		}
		res.Metrics = perLayer(b.rec, b.ctr, o)
	} else {
		res.Metrics = endToEnd(o)
	}
	if err := res.save(e, b.rec); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd derives the metrics a user of the program sees.
func endToEnd(o *outcome) []metric {
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = seconds(d)
	}
	out := []metric{
		{Name: "wall_s", Value: seconds(o.wall), Unit: "s"},
		{Name: "cpu_s", Value: seconds(o.proc.cpu), Unit: "s"},
		{Name: "peak_rss_mb", Value: float64(o.proc.maxRSS) / mib, Unit: "MiB"},
		{Name: "store_mb", Value: float64(o.storeBytes) / mib, Unit: "MiB"},
	}
	// Only serve tells repeat requests from first ones. Every request of
	// cold, resim and warm is reported under both names: on warm each is
	// served from the store, and cold and resim send one.
	hits, hitNote := o.hits, ""
	if len(hits) == 0 {
		hits, hitNote = o.ops, ", the op latencies"
	}
	for _, l := range []struct {
		name string
		xs   []float64
		note string
	}{{"op", o.ops, ""}, {"hit", hits, hitNote}} {
		for _, q := range []float64{0.5, 0.9} {
			v, ok := reportedPercentile(l.xs, q)
			note := fmt.Sprintf("n=%d", len(l.xs)) + l.note
			if !ok {
				note += ", under-sampled: the maximum"
			}
			out = append(out, metric{Name: fmt.Sprintf("%s_p%d_ms", l.name, int(q*100)), Value: v, Unit: "ms", Note: note})
		}
	}
	return append(out, metric{Name: "setup_s", Value: median(setup), Unit: "s", Note: fmt.Sprintf("median of %d", len(setup))})
}

// perLayer derives the per-layer metrics of a traced run: self times of
// the spans the benchmark recorded, summed by layer and operation, and the
// counts its calls and the stores' Stats() returned.
func perLayer(rec *recorder, c *counters, o *outcome) []metric {
	spans := rec.snapshot()
	self := selfTimes(spans)
	byName := map[string]float64{}
	byLayer := map[string]float64{}
	for _, s := range spans {
		byName[s.Name] += self[s.ID].Seconds()
		byLayer[s.layer()] += self[s.ID].Seconds()
	}
	nsPerInstr := 0.0
	if c.simInstructions > 0 {
		nsPerInstr = byName["sim.run"] * 1e9 / float64(c.simInstructions)
	}
	s := func(name string, v float64) metric { return metric{Name: name, Value: v, Unit: "s"} }
	n := func(name string, v uint64) metric { return metric{Name: name, Value: float64(v), Unit: "count"} }
	by := func(name string, v uint64) metric { return metric{Name: name, Value: float64(v), Unit: "bytes"} }
	return []metric{
		s("synth.generate_s", byName["synth.generate"]),
		n("synth.records", c.synthRecords),
		s("core.convert_s", byName["core.convert"]),
		n("core.records", c.coreRecords),
		s("tracestore.open_s", byName["tracestore.open"]+byName["tracestore.close"]),
		s("tracestore.get_s", byName["tracestore.get"]),
		n("tracestore.hits", c.slabHits),
		n("tracestore.misses", c.slabMisses),
		n("tracestore.prefetches", c.slabPrefetches),
		by("tracestore.bytes_mapped", c.slabMapped),
		by("tracestore.bytes_written", c.slabWritten),
		s("sim.run_s", byName["sim.run"]),
		n("sim.instructions", c.simInstructions),
		n("sim.cycles", c.simCycles),
		{Name: "sim.ns_per_instr", Value: nsPerInstr, Unit: "ns"},
		s("resultcache.open_s", byName["resultcache.open"]),
		s("resultcache.get_s", byName["resultcache.get"]),
		s("resultcache.put_s", byName["resultcache.put"]),
		n("resultcache.hits", c.cacheHits),
		n("resultcache.misses", c.cacheMisses),
		by("resultcache.bytes_read", c.cacheRead),
		by("resultcache.bytes_written", c.cacheWritten),
		s("expstore.open_s", byName["expstore.open"]+byName["expstore.close"]),
		s("expstore.append_s", byName["expstore.append"]),
		s("expstore.readback_s", byName["expstore.readback"]),
		s("expstore.query_s", byName["expstore.query"]),
		by("expstore.bytes_read", c.expRead),
		by("expstore.bytes_written", c.expWritten),
		s("experiments.render_s", byLayer["experiments"]),
		s("server.submit_s", byName["server.submit"]),
		n("server.jobs_computed", c.jobsComputed),
		n("server.jobs_from_cache", c.jobsFromCache),
		n("server.memory_hits", c.memHits),
		n("server.disk_hits", c.diskHits),
		s("report.self_s", byLayer["report"]),
		s("report.wall_s", seconds(o.wall)),
	}
}

// print writes the run record, every metric by name and unit, and, as the
// last line, the JSON summary.
func (r *result) print(w io.Writer) {
	rec, _ := json.Marshal(r.Record)
	fmt.Fprintf(w, "perfbench: record %s\n", rec)
	fmt.Fprintf(w, "perfbench: %s: %d requests attempted, %d failed\n", r.Record.Workload, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "  %-26s %16.6f %-6s%s\n", m.Name, m.Value, m.Unit, note)
	}
	out, _ := json.Marshal(r.summary(""))
	fmt.Fprintln(w, string(out))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summary is the machine-readable result; prefix names the metrics of one
// workload inside a combined summary.
func (r *result) summary(prefix string) summary {
	s := summary{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.Metrics {
		s.Metrics[prefix+m.Name] = jsonMetric{m.Value, m.Unit}
	}
	return s
}

// save keeps the run's record and metrics, and a traced run's spans,
// under the build directory.
func (r *result) save(e *env, rec *recorder) error {
	dir := filepath.Join(e.build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := 0
	if r.Record.Trace {
		mode = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-trace%d",
		time.Now().UTC().Format("20060102T150405.000"), r.Record.Workload, r.Record.Seed, mode))
	doc, err := json.MarshalIndent(struct {
		Record  runRecord `json:"record"`
		Summary summary   `json:"summary"`
	}{r.Record, r.summary("")}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(doc, '\n'), 0o644); err != nil {
		return err
	}
	if rec == nil {
		return nil
	}
	f, err := os.Create(base + ".spans.json")
	if err != nil {
		return err
	}
	if err := rec.writeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload untraced and then traced, prints every metric
// of both runs, and reports the tracing overhead: the traced run's wall
// time minus the end-to-end run's. The untraced runs go first because a
// child's peak RSS counts the harness's resident memory when it is
// spawned, and the traced runs leave the harness large.
func runAll(e *env, seed uint64, secs int) error {
	total := summary{Correct: true, Metrics: map[string]jsonMetric{}}
	wall := map[string][2]float64{}
	for mode, traced := range []bool{false, true} {
		for _, w := range workloadNames {
			res, err := runOne(e, w, seed, secs, traced)
			if err != nil {
				return err
			}
			res.print(os.Stdout)
			s := res.summary(w + "/")
			total.Correct = total.Correct && s.Correct
			total.Attempted += s.Attempted
			total.Failed += s.Failed
			for k, v := range s.Metrics {
				total.Metrics[k] = v
			}
			for _, m := range res.Metrics {
				if m.Name == "wall_s" || m.Name == "report.wall_s" {
					ws := wall[w]
					ws[mode] = m.Value
					wall[w] = ws
				}
			}
		}
	}
	for _, w := range workloadNames {
		overhead := wall[w][1] - wall[w][0]
		fmt.Printf("perfbench: %s: tracing overhead %+.3f s (traced %.3f s, end-to-end %.3f s)\n",
			w, overhead, wall[w][1], wall[w][0])
		total.Metrics[w+"/report.trace_overhead_s"] = jsonMetric{overhead, "s"}
	}
	out, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
