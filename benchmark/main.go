// Command benchmark is the repository's benchmark: one process that runs a
// named workload from a seed, checks every output against a reference, and
// prints its end-to-end metrics (untraced) or its per-layer metrics (traced)
// with the result JSON as the last line of standard output. See README.md.
//
// Build and run it through run.sh from the repository root:
//
//	bash benchmark/run.sh --workload kernel-sweep --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"mdacache/internal/experiments"
)

// minJobs is the least number of latency samples an untraced run collects:
// p90 needs ten samples beyond it.
const minJobs = 100

// setupReps is how many times a run sets its workload up before the
// measured window, and again after it in an end-to-end run. setup_s is the
// median of all of them, so a slow spell of the host at one end of the run
// moves it less.
const setupReps = 10

// outDir holds everything a run writes, inside the checkout it runs from.
const outDir = ".bench_build"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // traces and service state
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics each mode prints, in this order;
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_ops_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"max_rss_mb", "MB"},
	{"success_frac", "fraction"},
	{"norm_cycles_1P2L", "ratio"},
	{"norm_cycles_2P2L", "ratio"},
	{"ops_per_kcycle", "1/kcycle"},
}

var perLayer = []metricDef{
	{"workloads.build_ms", "ms"},
	{"workloads.request_gen_ns_per_op", "ns"},
	{"workloads.self_ms", "ms"},
	{"compiler.compile_ms", "ms"},
	{"compiler.compile_alloc_mb", "MB"},
	{"compiler.trace_ns_per_op", "ns"},
	{"compiler.self_ms", "ms"},
	{"experiments.demux_ns_per_op", "ns"},
	{"experiments.self_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.build_alloc_mb", "MB"},
	{"core.simulate_ms", "ms"},
	{"core.simulate_alloc_mb", "MB"},
	{"core.ns_per_l1_access", "ns"},
	{"core.self_ms", "ms"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"cpu.order_stalls", "count"},
	{"l1.hit_rate", "fraction"},
	{"l1.accesses", "count"},
	{"l2.hit_rate", "fraction"},
	{"l2.accesses", "count"},
	{"l3.hit_rate", "fraction"},
	{"l3.accesses", "count"},
	{"l1.mshr_stalls", "count"},
	{"l1.mshr_coalesced", "count"},
	{"l1.extra_tag_probes", "count"},
	{"llc.duplicate_evictions", "count"},
	{"llc.set_conflicts", "count"},
	{"llc.set_arb_delay", "cycles"},
	{"coherence.snoop_flushes", "count"},
	{"coherence.snoop_invalidates", "count"},
	{"mem.reads.row", "count"},
	{"mem.reads.col", "count"},
	{"mem.writes.row", "count"},
	{"mem.writes.col", "count"},
	{"mem.buffer_hit_rate", "fraction"},
	{"mem.accesses", "count"},
	{"mem.avg_read_latency_cycles", "cycles"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.notify_ms", "ms"},
	{"serve.spec_cache_hit_ratio", "fraction"},
	{"serve.spec_cache_lookups", "count"},
	{"serve.retries", "count"},
	{"serve.state_dir_bytes", "B/job"},
	{"serve.self_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

type workloadDef struct {
	name, why string
	run       func(options) (*report, error)
}

var workloadDefs = []workloadDef{
	{"kernel-sweep", "paper kernels x 1P1L/1P2L/2P2L plus 4-core 1P2L through experiments.Run: compile, trace, demux, core.Build and the cache levels", runKernelSweep},
	{"kv-4core", "Zipf 0.99 kv requests on 4 cores, 2P2L, half writes, one long run: coherence and writebacks, no compiler or demux", runKV},
	{"serve-jobs", "2 closed-loop clients submit 4-spec jobs to an in-process mdaserve: admission, durable store, events and the spec cache", runServeJobs},
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	m                 map[string]float64
	notes             []string
	problems          []string
}

func newReport() *report { return &report{m: make(map[string]float64)} }

func (r *report) notef(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed unit of work; the first few reasons are kept.
func (r *report) fail(format string, args ...interface{}) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// failedOnly is the report of a run whose failures left nothing to
// measure: every metric reads 0 and the result is marked incorrect.
func (r *report) failedOnly() *report {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		r.m[d.name] = 0
	}
	return r
}

// jobMetrics records the latency percentiles and rate of a run's jobs. A
// run whose failures left too few samples reports the percentiles as 0; it
// is already marked incorrect.
func (r *report) jobMetrics(latMS []float64, perSecond float64) error {
	p50, err := percentile(latMS, 0.5)
	if err == nil {
		var p90 float64
		if p90, err = percentile(latMS, 0.9); err == nil {
			r.m["job_p50_ms"], r.m["job_p90_ms"], r.m["jobs_per_s"] = p50, p90, perSecond
			r.notef("job latency over %d samples: p50 %.3f ms, p90 %.3f ms", len(latMS), p50, p90)
			return nil
		}
	}
	if r.failed == 0 {
		return fmt.Errorf("job latency: %w", err)
	}
	r.m["job_p50_ms"], r.m["job_p90_ms"], r.m["jobs_per_s"] = 0, 0, perSecond
	r.notef("job latency: %v", err)
	return nil
}

// traceMetrics records self times per unit of work and the tracing
// overhead: the traced segment's cost per unit of work against the
// untraced segment's.
func (r *report) traceMetrics(tr *tracer, units int, tracedCost, baseCost float64) {
	spans := tr.snapshot()
	selfTimeMetrics(r.m, spans, units)
	r.m["trace.overhead_pct"] = (ratio(tracedCost, baseCost) - 1) * 100
	r.m["trace.spans"] = float64(len(spans))
}

func (r *report) writeTrace(o options, tr *tracer) error {
	path := filepath.Join(o.outDir, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path, o.workload, o.seed); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.notef("spans written to %s", path)
	return nil
}

// timeSetup runs setup setupReps times, appends each duration in seconds
// to secs and returns the last value; discard, when non-nil, releases the
// others.
func timeSetup[T any](secs *[]float64, setup func() (T, error), discard func(T)) (T, error) {
	var v T
	for i := 0; i < setupReps; i++ {
		if i > 0 && discard != nil {
			discard(v)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, fmt.Errorf("set-up: %w", err)
		}
		*secs = append(*secs, time.Since(t0).Seconds())
	}
	runtime.GC()
	return v, nil
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result finishes the report for the mode and checks that it names every
// metric of the mode. Per-layer metrics of a layer the workload does not
// exercise read 0.
func (r *report) result(o options) (resultOut, error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	} else {
		r.m["max_rss_mb"] = maxRSSMB()
		r.m["success_frac"] = 1 - ratio(float64(r.failed), float64(r.attempted))
	}
	out := resultOut{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricOut)}
	var unused []string
	for _, d := range defs {
		v, ok := r.m[d.name]
		switch {
		case !ok && o.trace:
			unused = append(unused, d.name)
		case !ok:
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(unused) > 0 {
		r.notef("not exercised by %s (reported as 0): %s", o.workload, strings.Join(unused, ", "))
	}
	return out, nil
}

func main() {
	var o options
	name := flag.String("workload", "", "workload: kernel-sweep, kv-4core or serve-jobs")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	record := flag.String("record-reference", "", "record reference.json at this path from experiments.Run and exit")
	flag.Parse()
	o.workload, o.trace, o.outDir = *name, *traceFlag == 1, outDir

	if *record != "" {
		if err := recordReferences(*record); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		usage("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		usage("--seconds must be positive")
	}
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == o.workload {
			def = &workloadDefs[i]
		}
	}
	if def == nil {
		usage(fmt.Sprintf("unknown workload %q", o.workload))
	}

	r, err := def.run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	out, err := r.result(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printReport(o, r, out)
}

func usage(msg string) {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.name)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s (workloads: %s)\n", msg, strings.Join(names, ", "))
	os.Exit(2)
}

func printReport(o options, r *report, out resultOut) {
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("%s seed %d, %g s, %s\n", o.workload, o.seed, o.seconds, mode)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  attempted %d, failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Println("  FAILED: " + p)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %16.10g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// recordSeconds are the kv run lengths reference.json covers: the
// run_seconds of BENCHMARK.json and half of it for a traced run, and the
// lengths the self-tests use.
var recordSeconds = []float64{30, 15, 1, 0.5}

// recordReferences runs every kernel-sweep spec and every kv seed at each
// recorded run length through experiments.Run and writes the outcomes.
func recordReferences(path string) error {
	specs := sweepSpecs()
	for _, secs := range recordSeconds {
		for seed := uint64(0); seed < kvSeeds; seed++ {
			specs = append(specs, kvSpec(seed, secs))
		}
	}
	refs := make(references)
	for _, spec := range specs {
		res, err := experiments.Run(spec)
		if err != nil {
			return fmt.Errorf("%v: %w", spec, err)
		}
		refs[refKey(spec)] = refOf(res)
		fmt.Fprintf(os.Stderr, "recorded %s\n", refKey(spec))
	}
	if len(refs) != len(specs) {
		return errors.New("duplicate reference keys")
	}
	return writeReferences(path, refs)
}
