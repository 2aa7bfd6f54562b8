// Package perf records machine-readable performance baselines of the
// simulator itself. Its scenarios (one per paper figure) are the bodies of
// the root bench_test.go's Table I, Fig. 10–13 and SimulatorThroughput
// benchmarks, runnable programmatically, so `mdabench
// -bench-out BENCH_<n>.json` can pin the engine's wall-clock trajectory:
// every performance PR commits a pre-change and a post-change baseline, and
// Compare reports the per-scenario and geometric-mean speedups between any
// two. The JSON also embeds standard `go test -bench` text lines so
// benchstat can compare baselines directly (see EXPERIMENTS.md,
// "Benchmarking").
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
	"mdacache/internal/experiments"
	"mdacache/internal/workloads"
)

// Scale is the benchmark scale (bench_test.go uses it too): matrix dims ÷8,
// capacities ÷64.
const (
	Scale = 8
	N     = 512 / Scale
	Small = 256 / Scale
)

// subset is the benchmark subset used for per-figure averages (identical to
// bench_test.go's benchSubset for Figs. 14–17).
var subset = []string{"sgemm", "strmm", "sobel", "htap2"}

// Scenario is one measurable unit: a named benchmark body. Quick scenarios
// form the PR-smoke suite; the full suite adds the simulation-heavy figures.
type Scenario struct {
	Name  string
	Quick bool
	Fn    func(b *testing.B)
}

// Result is one scenario's measurement.
type Result struct {
	Name        string             `json:"name"`
	Iters       int                `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the committed BENCH_<n>.json artifact.
type Baseline struct {
	Schema     int      `json:"schema"`
	Suite      string   `json:"suite"` // "quick" or "full"
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	RecordedAt string   `json:"recorded_at"`
	Results    []Result `json:"results"`
	// GoBench holds the same measurements as standard `go test -bench`
	// output lines, so `jq -r '.gobench[]' BENCH_1.json > old.txt` feeds
	// benchstat directly.
	GoBench []string `json:"gobench"`
}

func runSpec(b *testing.B, spec experiments.RunSpec) *core.Results {
	b.Helper()
	spec.Scale = Scale
	res, err := experiments.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// Scenarios returns the suite in fixed order. Names are those of the root
// bench_test.go benchmarks that run them, minus the "Benchmark" prefix, so
// benchstat can line the two sources up (RequestThroughput/kv runs only
// here).
func Scenarios() []Scenario {
	var s []Scenario
	s = append(s, Scenario{Name: "Table1Config", Quick: true, Fn: benchTable1})
	for _, bench := range subset {
		s = append(s, Scenario{Name: "Fig10AccessMix/" + bench, Quick: true, Fn: benchFig10(bench)})
	}
	for _, bench := range subset {
		s = append(s, Scenario{Name: "Fig11L1HitRate/" + bench, Quick: bench == "htap2", Fn: benchFig11(bench)})
	}
	for _, d := range []core.Design{core.D1DiffSet, core.D1SameSet, core.D2Sparse} {
		for _, llcMB := range []int{1, 2} {
			d, llc := d, llcMB*core.MB
			name := fmt.Sprintf("Fig12NormalizedCycles/%v/LLC%dMB", d, llcMB)
			s = append(s, Scenario{Name: name, Fn: benchFig12(d, llc)})
		}
	}
	for _, d := range []core.Design{core.D1DiffSet, core.D2Sparse} {
		d := d
		s = append(s, Scenario{Name: "Fig13CacheResident/" + d.String(), Fn: benchFig13(d)})
	}
	s = append(s, Scenario{Name: "SimulatorThroughput", Quick: true, Fn: benchThroughput})
	s = append(s, Scenario{Name: "RequestThroughput/kv", Quick: true, Fn: benchRequestThroughput})
	return s
}

func benchTable1(b *testing.B) {
	designs := []core.Design{core.D0Baseline, core.D1DiffSet, core.D1SameSet, core.D2Sparse, core.D2Dense, core.D3AllTile}
	for i := 0; i < b.N; i++ {
		for _, d := range designs {
			cfg := core.DefaultConfig(d, 1*core.MB).Scale(Scale)
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
			if _, err := core.Build(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchFig10(bench string) func(b *testing.B) {
	return func(b *testing.B) {
		var col float64
		for i := 0; i < b.N; i++ {
			mix, err := mixOf(bench)
			if err != nil {
				b.Fatal(err)
			}
			col = mix.ColShare()
		}
		b.ReportMetric(100*col, "%col-volume")
	}
}

// mixOf compiles a benchmark for the 2-D target and returns its access mix.
func mixOf(bench string) (compiler.Mix, error) {
	kern, err := workloads.Build(bench, N)
	if err != nil {
		return compiler.Mix{}, err
	}
	prog, err := compiler.Compile(kern, compiler.Target{Logical2D: true})
	if err != nil {
		return compiler.Mix{}, err
	}
	return prog.MeasureMix(), nil
}

func benchFig11(bench string) func(b *testing.B) {
	return func(b *testing.B) {
		var ratio float64
		for i := 0; i < b.N; i++ {
			base := runSpec(b, experiments.RunSpec{Bench: bench, N: N, Design: core.D0Baseline, LLCBytes: core.MB})
			r := runSpec(b, experiments.RunSpec{Bench: bench, N: N, Design: core.D1DiffSet, LLCBytes: core.MB})
			ratio = r.L1().HitRate() / base.L1().HitRate()
		}
		b.ReportMetric(ratio, "L1hit/base")
	}
}

func benchFig12(d core.Design, llc int) func(b *testing.B) {
	return func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			sum = 0
			for _, bench := range subset {
				base := runSpec(b, experiments.RunSpec{Bench: bench, N: N, Design: core.D0Baseline, LLCBytes: llc})
				r := runSpec(b, experiments.RunSpec{Bench: bench, N: N, Design: d, LLCBytes: llc})
				sum += float64(r.Cycles) / float64(base.Cycles)
			}
		}
		b.ReportMetric(sum/float64(len(subset)), "cycles/base")
	}
}

func benchFig13(d core.Design) func(b *testing.B) {
	return func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			sum = 0
			for _, bench := range subset {
				base := runSpec(b, experiments.RunSpec{Bench: bench, N: Small, Design: core.D0Baseline, LLCBytes: 2 * core.MB, TwoLevel: true})
				r := runSpec(b, experiments.RunSpec{Bench: bench, N: Small, Design: d, LLCBytes: 2 * core.MB, TwoLevel: true})
				sum += float64(r.Cycles) / float64(base.Cycles)
			}
		}
		b.ReportMetric(sum/float64(len(subset)), "cycles/base")
	}
}

func benchThroughput(b *testing.B) {
	var ops uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runSpec(b, experiments.RunSpec{Bench: "strmm", N: N, Design: core.D1DiffSet, LLCBytes: core.MB})
		ops += r.Ops
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
}

// benchRequestThroughput measures the request-driven path end to end: the
// streaming generator feeding one request stream per core, and a four-core
// shared hierarchy under a Zipf-skewed KV load.
func benchRequestThroughput(b *testing.B) {
	var ops uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runSpec(b, experiments.RunSpec{
			Workload: "kv", N: N, Design: core.D2Sparse, LLCBytes: core.MB,
			Cores: 4, Clients: 16, Ops: 100_000, Zipf: 0.99, ReadRatio: 0.9,
			WorkloadSeed: 1,
		})
		ops += r.Ops
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
}

// Run measures the named suite ("quick" or "full") and returns the baseline.
// log, when non-nil, receives one progress line per scenario.
func Run(suite string, log io.Writer) (*Baseline, error) {
	if suite != "quick" && suite != "full" {
		return nil, fmt.Errorf("perf: unknown suite %q (valid: quick, full)", suite)
	}
	base := &Baseline{
		Schema:     1,
		Suite:      suite,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
	}
	for _, sc := range Scenarios() {
		if suite == "quick" && !sc.Quick {
			continue
		}
		fn := sc.Fn
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		if r.N == 0 {
			return nil, fmt.Errorf("perf: scenario %s failed (see test log)", sc.Name)
		}
		res := Result{
			Name:        sc.Name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		base.Results = append(base.Results, res)
		base.GoBench = append(base.GoBench, goBenchLine(sc.Name, r))
		if log != nil {
			fmt.Fprintf(log, "%-45s %12.0f ns/op  (%d iter)\n", sc.Name, res.NsPerOp, res.Iters)
		}
	}
	return base, nil
}

// goBenchLine renders one measurement as a standard benchmark output line.
func goBenchLine(name string, r testing.BenchmarkResult) string {
	return fmt.Sprintf("Benchmark%s-%d\t%s\t%s", name, runtime.GOMAXPROCS(0),
		strings.TrimSpace(r.String()), strings.TrimSpace(r.MemString()))
}

// WriteFile writes the baseline as indented JSON.
func (b *Baseline) WriteFile(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBaseline reads a BENCH_<n>.json file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return &b, nil
}

// Delta is one scenario's old-vs-new comparison.
type Delta struct {
	Name    string
	OldNs   float64
	NewNs   float64
	Speedup float64 // old/new: >1 means new is faster
}

// Compare matches scenarios by name and returns per-scenario deltas (sorted
// by name) plus the geometric-mean speedup across matches. Scenarios present
// in only one baseline — a rename or a dropped benchmark would otherwise hide
// a regression behind a silent skip — are returned in skipped (sorted), along
// with scenarios whose measurement is unusable (non-positive ns/op).
func Compare(old, new *Baseline) (deltas []Delta, geomean float64, skipped []string) {
	oldBy := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldBy[r.Name] = r
	}
	newSeen := make(map[string]bool, len(new.Results))
	var logSum float64
	for _, n := range new.Results {
		newSeen[n.Name] = true
		o, ok := oldBy[n.Name]
		if !ok {
			skipped = append(skipped, n.Name+" (only in new)")
			continue
		}
		if o.NsPerOp <= 0 || n.NsPerOp <= 0 {
			skipped = append(skipped, n.Name+" (unusable measurement)")
			continue
		}
		sp := o.NsPerOp / n.NsPerOp
		deltas = append(deltas, Delta{Name: n.Name, OldNs: o.NsPerOp, NewNs: n.NsPerOp, Speedup: sp})
		logSum += math.Log(sp)
	}
	for _, o := range old.Results {
		if !newSeen[o.Name] {
			skipped = append(skipped, o.Name+" (only in old)")
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	sort.Strings(skipped)
	if len(deltas) == 0 {
		return nil, 0, skipped
	}
	return deltas, math.Exp(logSum / float64(len(deltas))), skipped
}

// FormatCompare renders Compare's output as an aligned text table. Skipped
// scenarios are listed explicitly — an unmatched baseline pair must be
// visible, not silently thinner.
func FormatCompare(deltas []Delta, geomean float64, skipped []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-45s %14s %14s %9s\n", "scenario", "old ns/op", "new ns/op", "speedup")
	for _, d := range deltas {
		fmt.Fprintf(&sb, "%-45s %14.0f %14.0f %8.2fx\n", d.Name, d.OldNs, d.NewNs, d.Speedup)
	}
	fmt.Fprintf(&sb, "%-45s %14s %14s %8.2fx\n", "geomean", "", "", geomean)
	for _, name := range skipped {
		fmt.Fprintf(&sb, "SKIPPED %s: not compared\n", name)
	}
	return sb.String()
}
