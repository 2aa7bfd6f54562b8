package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mdacache/internal/core"
)

// allDesigns is the paper's four evaluated design points — the set the
// determinism satellites cover.
var allDesigns = []core.Design{core.D0Baseline, core.D1DiffSet, core.D1SameSet, core.D2Sparse}

// faultSpec is a design point sized so dirty lines actually reach main
// memory (N=32 with a small scaled LLC): write-fault injection fires, which
// the determinism tests assert to keep their claims non-vacuous.
func faultSpec(bench string, d core.Design, seed uint64) RunSpec {
	return RunSpec{
		Bench: bench, N: 32, Design: d, LLCBytes: 256 * 1024, Scale: 16,
		WriteFailProb: 0.2, FaultSeed: seed,
	}
}

// detSpecs is the determinism harness's workload: every design, plus
// fault-injected variants whose RNG must be re-derived from the spec (never
// shared), plus a failing spec (cycle budget) so failure annotations are
// covered too.
func detSpecs() []RunSpec {
	var specs []RunSpec
	for _, d := range allDesigns {
		specs = append(specs, testSpec("sgemm", d))
	}
	// Fault injection with two different seeds proves seeds come from the
	// spec, not from shared RNG state.
	specs = append(specs,
		faultSpec("sgemm", core.D1DiffSet, 12345),
		faultSpec("sobel", core.D2Sparse, 99))
	// A deterministic failure: tiny cycle budget.
	f := testSpec("strmm", core.D1SameSet)
	f.MaxCycles = 100
	specs = append(specs, f)
	return specs
}

// TestRunTwiceBitIdentical is the end-to-end determinism satellite: every
// design run twice with the same spec (same seed) yields bit-identical
// core.Results, including the fault-injected configurations.
func TestRunTwiceBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		spec RunSpec
	}{
		{"1P1L", testSpec("sgemm", core.D0Baseline)},
		{"1P2L", testSpec("sgemm", core.D1DiffSet)},
		{"1P2L_SameSet", testSpec("sgemm", core.D1SameSet)},
		{"2P2L", testSpec("sgemm", core.D2Sparse)},
		{"1P2L+faults", faultSpec("sgemm", core.D1DiffSet, 4242)},
		{"2P2L+faults", faultSpec("sobel", core.D2Sparse, 4242)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // concurrent designs also cross-check shared state
			r1, err := Run(tc.spec)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			r2, err := Run(tc.spec)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("results diverge between identical runs: %s", diffResults(r1, r2))
			}
			if tc.spec.WriteFailProb > 0 && r1.Mem.WriteRetries == 0 {
				t.Fatal("fault injection never fired; the determinism claim is vacuous")
			}
		})
	}
}

// TestSweepParallelMatchesSequential is the tentpole's acceptance test:
// RunSweep with Workers=N>1 returns a []SweepRun deeply equal to the
// Workers=1 result — same specs, same seeds, fault injection enabled — and
// runs under -race in CI.
func TestSweepParallelMatchesSequential(t *testing.T) {
	if err := CheckDeterminism(context.Background(), detSpecs(), 4, SweepOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepWorkerCountInvariance sweeps the worker count itself: 1, 2, 3 and
// 8 workers over the same specs must agree run for run.
func TestSweepWorkerCountInvariance(t *testing.T) {
	specs := detSpecs()
	base, err := RunSweep(context.Background(), specs, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		got, err := RunSweep(context.Background(), specs, SweepOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if err := DiffRuns(base, got); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
	}
}

// TestSweepParallelCheckpointResume proves -resume works across worker
// counts: a parallel sweep's checkpoint resumes a later parallel sweep with
// identical results and zero re-simulation.
func TestSweepParallelCheckpointResume(t *testing.T) {
	state := t.TempDir() + "/sweep.json"
	specs := detSpecs()
	first, err := RunSweep(context.Background(), specs, SweepOptions{Workers: 4, StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunSweep(context.Background(), specs, SweepOptions{Workers: 4, StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		if !r.Resumed || r.Attempts != 0 {
			t.Fatalf("run %d (%v) re-simulated instead of resumed: %+v", i, r.Spec, r)
		}
		if !reflect.DeepEqual(r.Results, first[i].Results) || r.Err != first[i].Err {
			t.Fatalf("run %d (%v) resumed with different outcome", i, r.Spec)
		}
	}
	// A sequential sweep resumes the parallel checkpoint just as well.
	seq, err := RunSweep(context.Background(), specs, SweepOptions{Workers: 1, StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if !seq[i].Resumed {
			t.Fatalf("sequential resume re-simulated run %d", i)
		}
	}
}

// TestSweepFlushEvery checks the periodic-flush path persists every run by
// the time RunSweep returns, even when flushes are batched.
func TestSweepFlushEvery(t *testing.T) {
	state := t.TempDir() + "/sweep.json"
	specs := detSpecs()
	if _, err := RunSweep(context.Background(), specs, SweepOptions{
		Workers: 4, StatePath: state, FlushEvery: 64, // larger than the spec count
	}); err != nil {
		t.Fatal(err)
	}
	ckpt, err := LoadCheckpoint(state)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Len() != len(specs) {
		t.Fatalf("final flush persisted %d runs, want %d", ckpt.Len(), len(specs))
	}
}

// TestCheckDeterminismRejectsDivergence makes sure the harness actually
// detects differences instead of rubber-stamping.
func TestCheckDeterminismRejectsDivergence(t *testing.T) {
	a := []SweepRun{{Key: "k", Results: &core.Results{Cycles: 1}}}
	b := []SweepRun{{Key: "k", Results: &core.Results{Cycles: 2}}}
	if err := DiffRuns(a, b); err == nil {
		t.Fatal("diverging cycles not detected")
	}
	b = []SweepRun{{Key: "other", Results: &core.Results{Cycles: 1}}}
	if err := DiffRuns(a, b); err == nil {
		t.Fatal("diverging keys not detected")
	}
	if err := DiffRuns(a, a[:0]); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

// BenchmarkSweep measures the wall-clock effect of the worker pool on a
// multi-design sweep; run with -bench Sweep -cpu 1 to pin GOMAXPROCS.
//
//	go test ./internal/experiments -bench Sweep -benchtime 2x
func BenchmarkSweep(b *testing.B) {
	var specs []RunSpec
	for _, d := range allDesigns {
		for _, bench := range []string{"sgemm", "sobel", "strmm"} {
			specs = append(specs, testSpec(bench, d))
		}
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runs, err := RunSweep(context.Background(), specs, SweepOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range runs {
					if !r.OK() {
						b.Fatalf("%v failed: %s", r.Spec, r.Err)
					}
				}
			}
		})
	}
}
