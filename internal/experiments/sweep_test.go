package experiments

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
)

// testSpec is a fast-running healthy design point.
func testSpec(bench string, d core.Design) RunSpec {
	return RunSpec{Bench: bench, N: 16, Design: d, LLCBytes: 1 * core.MB, Scale: 16}
}

func TestSweepIsolatesFailingSpec(t *testing.T) {
	specs := []RunSpec{
		testSpec("sgemm", core.D0Baseline),
		{Bench: "nosuch", N: 16, Design: core.D0Baseline, LLCBytes: 1 * core.MB, Scale: 16},
		testSpec("sgemm", core.D1DiffSet),
		{Bench: "sobel", N: 16, Design: core.D1DiffSet, LLCBytes: 1 * core.MB, Scale: 16, MaxCycles: 5},
	}
	runs, err := RunSweep(context.Background(), specs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(specs) {
		t.Fatalf("got %d runs, want %d", len(runs), len(specs))
	}
	for _, i := range []int{0, 2} {
		if !runs[i].OK() || runs[i].Results == nil || runs[i].Results.Cycles == 0 {
			t.Fatalf("healthy run %d failed: %+v", i, runs[i].Err)
		}
	}
	if runs[1].OK() || !strings.Contains(runs[1].Err, "nosuch") {
		t.Fatalf("bad-benchmark run not annotated: %+v", runs[1])
	}
	if runs[3].OK() || !strings.Contains(runs[3].Err, "cycle") {
		t.Fatalf("cycle-budget run not annotated: %+v", runs[3])
	}
}

func TestSweepCheckpointResume(t *testing.T) {
	state := filepath.Join(t.TempDir(), "sweep.json")
	specs := []RunSpec{
		testSpec("sgemm", core.D0Baseline),
		testSpec("sgemm", core.D1DiffSet),
	}
	// First pass simulates an interrupted sweep: only the first spec runs.
	first, err := RunSweep(context.Background(), specs[:1], SweepOptions{StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Resumed || !first[0].OK() {
		t.Fatalf("first pass: %+v", first[0])
	}
	// Second pass over the full list must reload spec 0 and simulate spec 1.
	second, err := RunSweep(context.Background(), specs, SweepOptions{StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	if !second[0].Resumed || second[0].Attempts != 0 {
		t.Fatalf("spec 0 re-simulated instead of resumed: %+v", second[0])
	}
	if second[1].Resumed || second[1].Attempts != 1 {
		t.Fatalf("spec 1 not simulated: %+v", second[1])
	}
	if second[0].Results.Cycles != first[0].Results.Cycles {
		t.Fatalf("resumed results diverge: %d vs %d",
			second[0].Results.Cycles, first[0].Results.Cycles)
	}
	// Failures are checkpointed too.
	bad := []RunSpec{{Bench: "nosuch", N: 16, Design: core.D0Baseline, LLCBytes: 1 * core.MB, Scale: 16}}
	r1, err := RunSweep(context.Background(), bad, SweepOptions{StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSweep(context.Background(), bad, SweepOptions{StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	if r1[0].OK() || r2[0].OK() || !r2[0].Resumed {
		t.Fatalf("failure not memoised: %+v then %+v", r1[0], r2[0])
	}
}

func TestSweepCancelledReturnsContiguousPrefix(t *testing.T) {
	// A sweep cancelled mid-flight must return ctx.Err() plus the contiguous
	// completed prefix — never a slice with holes, which would misalign any
	// caller indexing results by spec position (examples/sweep does exactly
	// that).
	state := filepath.Join(t.TempDir(), "sweep.json")
	specs := []RunSpec{
		testSpec("sgemm", core.D0Baseline),
		testSpec("sgemm", core.D1DiffSet),
		testSpec("sobel", core.D0Baseline),
	}
	// Complete spec 0 so the cancelled pass below has a resumable prefix.
	if _, err := RunSweep(context.Background(), specs[:1], SweepOptions{StatePath: state}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs, err := RunSweep(ctx, specs, SweepOptions{StatePath: state, Workers: 2})
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if len(runs) < 1 {
		t.Fatalf("resumed spec 0 missing from prefix: %d runs", len(runs))
	}
	for i, r := range runs {
		if r.Key == "" || (r.Results == nil && r.Err == "") {
			t.Fatalf("prefix entry %d is unfinished: %+v", i, r)
		}
	}
	if !runs[0].Resumed || runs[0].Results == nil {
		t.Fatalf("spec 0 should be resumed from the checkpoint: %+v", runs[0])
	}
	// Re-running with a live context finishes the sweep; the checkpoint is
	// intact despite the cancellation.
	full, err := RunSweep(context.Background(), specs, SweepOptions{StatePath: state, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(specs) || !full[0].Resumed {
		t.Fatalf("post-cancel resume broken: %+v", full)
	}
}

func TestSweepLogIsLineAtomic(t *testing.T) {
	// Progress lines from concurrent workers funnel through one goroutine;
	// the captured log must consist solely of complete, well-formed lines.
	var buf bytes.Buffer
	specs := []RunSpec{
		testSpec("sgemm", core.D0Baseline),
		testSpec("sgemm", core.D1DiffSet),
		testSpec("sgemm", core.D1SameSet),
		testSpec("sgemm", core.D2Sparse),
		{Bench: "nosuch", N: 16, Design: core.D0Baseline, LLCBytes: 1 * core.MB, Scale: 16},
	}
	if _, err := RunSweep(context.Background(), specs, SweepOptions{Workers: 4, Log: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("log does not end in a newline: %q", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	running, failed := 0, 0
	for _, line := range lines {
		if !strings.HasPrefix(line, "sweep: ") {
			t.Fatalf("interleaved or malformed log line: %q", line)
		}
		if strings.Contains(line, "running") {
			running++
		}
		if strings.Contains(line, "FAILED") {
			failed++
		}
	}
	if running != len(specs) {
		t.Fatalf("%d 'running' lines for %d specs:\n%s", running, len(specs), out)
	}
	if failed != 1 {
		t.Fatalf("%d FAILED lines, want 1:\n%s", failed, out)
	}
}

func TestSweepTableAnnotatesFailures(t *testing.T) {
	runs := []SweepRun{
		{Spec: testSpec("sgemm", core.D0Baseline), Err: "", Results: &core.Results{Cycles: 42}},
		{Spec: testSpec("sgemm", core.D1DiffSet), Err: "boom"},
	}
	out := SweepTable(runs).String()
	if !strings.Contains(out, "FAILED: boom") || !strings.Contains(out, "42") {
		t.Fatalf("sweep table missing annotations:\n%s", out)
	}
}

func TestRunKernelRecoversPanic(t *testing.T) {
	// A structurally broken kernel (nil array in a ref) panics inside the
	// compiler; RunKernelWith must convert that into an error, not crash.
	kern := &compiler.Kernel{
		Name: "broken",
		Nests: []compiler.Nest{{
			Loops: []compiler.Loop{compiler.For("i", 4)},
			Body: []compiler.Stmt{{
				Refs: []compiler.Ref{compiler.R(nil, compiler.Idx("i"), compiler.Idx("i"))},
			}},
		}},
	}
	_, err := RunKernelWith(context.Background(), kern, testSpec("sgemm", core.D0Baseline), Instrument{})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not recovered into error: %v", err)
	}
}

func TestSuiteCheckpointRoundtrip(t *testing.T) {
	state := filepath.Join(t.TempDir(), "suite.json")
	ckpt, err := LoadCheckpoint(state)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(16, nil)
	s.Benches = []string{"sgemm"}
	s.Checkpoint = ckpt
	r1, err := s.run(RunSpec{Bench: "sgemm", N: 16, Design: core.D0Baseline, LLCBytes: 1 * core.MB})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh suite over the same state file must reuse the stored run.
	ckpt2, err := LoadCheckpoint(state)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt2.Len() != 1 {
		t.Fatalf("checkpoint holds %d runs, want 1", ckpt2.Len())
	}
	s2 := NewSuite(16, nil)
	s2.Checkpoint = ckpt2
	r2, err := s2.run(RunSpec{Bench: "sgemm", N: 16, Design: core.D0Baseline, LLCBytes: 1 * core.MB})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r2.Cycles == 0 {
		t.Fatalf("checkpointed results diverge: %d vs %d", r1.Cycles, r2.Cycles)
	}
}
