// Package mdacache's root benchmark file regenerates every table and
// figure of the paper's evaluation as Go benchmarks — one Benchmark per
// table/figure, with the paper-comparable quantity emitted via
// b.ReportMetric (normalized cycles, hit-rate ratios, traffic ratios).
//
// The benchmarks run the scaled configuration (scale 1/8: 64×64 inputs,
// capacities ÷64) so `go test -bench=.` completes in minutes; run
// `go run ./cmd/mdabench -scale 4` (or -scale 1 for the paper's exact
// sizes) for the full-fidelity regeneration recorded in EXPERIMENTS.md.
package mdacache

import (
	"strings"
	"testing"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
	"mdacache/internal/experiments"
	"mdacache/internal/perf"
)

const (
	benchScale = perf.Scale
	benchN     = perf.N
)

// benchSubset is the subset used for per-figure averages in benchmark mode;
// sgemm and strmm bound the BLAS behaviours, sobel is the column-extreme,
// htap2 the row-heavy mix.
var benchSubset = []string{"sgemm", "strmm", "sobel", "htap2"}

// runScenarios runs the perf scenario named fig, or each scenario named
// fig/<sub> as sub-benchmark <sub>: Table I, Figs. 10–13 and the simulator
// throughput have one definition, shared with mdabench's baselines.
func runScenarios(b *testing.B, fig string) {
	for _, sc := range perf.Scenarios() {
		if sc.Name == fig {
			sc.Fn(b)
		} else if sub, ok := strings.CutPrefix(sc.Name, fig+"/"); ok {
			b.Run(sub, sc.Fn)
		}
	}
}

func runSpec(b *testing.B, spec experiments.RunSpec) *core.Results {
	b.Helper()
	spec.Scale = benchScale
	res, err := experiments.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func normCycles(b *testing.B, bench string, d core.Design, llc int) float64 {
	base := runSpec(b, experiments.RunSpec{Bench: bench, N: benchN, Design: core.D0Baseline, LLCBytes: llc})
	r := runSpec(b, experiments.RunSpec{Bench: bench, N: benchN, Design: d, LLCBytes: llc})
	return float64(r.Cycles) / float64(base.Cycles)
}

// BenchmarkTable1Config exercises the Table I configuration build for every
// design point (the configuration table itself).
func BenchmarkTable1Config(b *testing.B) { runScenarios(b, "Table1Config") }

// BenchmarkFig10AccessMix regenerates the access-type distribution and
// reports the suite's column share of data volume.
func BenchmarkFig10AccessMix(b *testing.B) { runScenarios(b, "Fig10AccessMix") }

// BenchmarkFig11L1HitRate reports L1 hit rate normalized to the baseline
// (paper: 1.12 average for 1P2L).
func BenchmarkFig11L1HitRate(b *testing.B) { runScenarios(b, "Fig11L1HitRate") }

// BenchmarkFig12NormalizedCycles reports execution time normalized to the
// prefetching baseline per design and LLC size (paper: 0.28–0.36 average
// at 1 MB).
func BenchmarkFig12NormalizedCycles(b *testing.B) { runScenarios(b, "Fig12NormalizedCycles") }

// BenchmarkFig13CacheResident reports the cache-resident (small input,
// 2 MB two-level) normalized cycles (paper: 0.86 / 0.84).
func BenchmarkFig13CacheResident(b *testing.B) { runScenarios(b, "Fig13CacheResident") }

// BenchmarkSimulatorThroughput measures raw simulation speed (ops/sec) —
// the engineering metric bounding full-scale runs.
func BenchmarkSimulatorThroughput(b *testing.B) { runScenarios(b, "SimulatorThroughput") }

// BenchmarkFig14Traffic reports LLC accesses and LLC↔memory bytes
// normalized to the baseline (paper: 0.22 accesses, 0.21 bytes for 1P2L).
func BenchmarkFig14Traffic(b *testing.B) {
	for _, bench := range benchSubset {
		b.Run(bench, func(b *testing.B) {
			var acc, bytes float64
			for i := 0; i < b.N; i++ {
				base := runSpec(b, experiments.RunSpec{Bench: bench, N: benchN, Design: core.D0Baseline, LLCBytes: core.MB})
				r := runSpec(b, experiments.RunSpec{Bench: bench, N: benchN, Design: core.D1DiffSet, LLCBytes: core.MB})
				acc = float64(r.LLC().Accesses) / float64(base.LLC().Accesses)
				bytes = float64(r.Mem.TotalBytes()) / float64(base.Mem.TotalBytes())
			}
			b.ReportMetric(acc, "LLCacc/base")
			b.ReportMetric(bytes, "memB/base")
		})
	}
}

// BenchmarkFig15Occupancy runs the occupancy-sampled sgemm/ssyrk traces and
// reports peak column occupancy of the LLC.
func BenchmarkFig15Occupancy(b *testing.B) {
	for _, bench := range []string{"sgemm", "ssyrk"} {
		b.Run(bench, func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				r := runSpec(b, experiments.RunSpec{
					Bench: bench, N: benchN, Design: core.D1DiffSet,
					LLCBytes: core.MB, OccupancyInterval: 10000,
				})
				peak = 0
				for _, s := range r.Occupancy {
					if f := s.ColFraction(len(s.Row) - 1); f > peak {
						peak = f
					}
				}
			}
			b.ReportMetric(100*peak, "%peak-col-occ")
		})
	}
}

// BenchmarkFig16SlowWrite reports the normalized-cycle delta from +20-cycle
// asymmetric 2P2L writes (paper: +0.4% average).
func BenchmarkFig16SlowWrite(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		delta = 0
		for _, bench := range benchSubset {
			base := runSpec(b, experiments.RunSpec{Bench: bench, N: benchN, Design: core.D0Baseline, LLCBytes: core.MB})
			sym := runSpec(b, experiments.RunSpec{Bench: bench, N: benchN, Design: core.D2Sparse, LLCBytes: core.MB})
			slow := runSpec(b, experiments.RunSpec{Bench: bench, N: benchN, Design: core.D2Sparse, LLCBytes: core.MB, SlowWrite: 20})
			delta += 100 * (float64(slow.Cycles) - float64(sym.Cycles)) / float64(base.Cycles)
		}
		delta /= float64(len(benchSubset))
	}
	b.ReportMetric(delta, "%delta")
}

// BenchmarkFig17FastMemory reports 1P2L (base memory) against the
// fast-memory baseline (paper: 1P2L beats even 1P1L-fast by 41%).
func BenchmarkFig17FastMemory(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = 0
		for _, bench := range benchSubset {
			fastBase := runSpec(b, experiments.RunSpec{Bench: bench, N: benchN, Design: core.D0Baseline, LLCBytes: core.MB, FastMem: true})
			r := runSpec(b, experiments.RunSpec{Bench: bench, N: benchN, Design: core.D1DiffSet, LLCBytes: core.MB})
			ratio += float64(r.Cycles) / float64(fastBase.Cycles)
		}
		ratio /= float64(len(benchSubset))
	}
	b.ReportMetric(ratio, "1P2L/1P1L-fast")
}

// BenchmarkAblationLayout runs the §IV-C layout-mismatch ablation.
func BenchmarkAblationLayout(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		base := runSpec(b, experiments.RunSpec{Bench: "sgemm", N: benchN, Design: core.D0Baseline, LLCBytes: core.MB})
		tiled := runSpec(b, experiments.RunSpec{Bench: "sgemm", N: benchN, Design: core.D0Baseline, LLCBytes: core.MB, LayoutOverride: compiler.LayoutTiled})
		ratio = float64(tiled.Cycles) / float64(base.Cycles)
	}
	b.ReportMetric(ratio, "tiled/linear")
}

// BenchmarkAblationDense compares sparse vs dense 2P2L fill traffic.
func BenchmarkAblationDense(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		sparse := runSpec(b, experiments.RunSpec{Bench: "sgemm", N: benchN, Design: core.D2Sparse, LLCBytes: core.MB})
		dense := runSpec(b, experiments.RunSpec{Bench: "sgemm", N: benchN, Design: core.D2Dense, LLCBytes: core.MB})
		ratio = float64(dense.Mem.TotalBytes()) / float64(sparse.Mem.TotalBytes())
	}
	b.ReportMetric(ratio, "dense-bytes/sparse")
}

// BenchmarkExtensionDesign3 measures the paper's future-work Design 3.
func BenchmarkExtensionDesign3(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = normCycles(b, "sgemm", core.D3AllTile, core.MB)
	}
	b.ReportMetric(ratio, "cycles/base")
}
