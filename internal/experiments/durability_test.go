package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mdacache/internal/core"
	"mdacache/internal/sim"
)

// TestCheckpointFlushDurable is the regression test for the fsync-after-rename
// hardening: a flushed checkpoint must be fully on disk under its final name —
// reloadable, byte-complete, and with no temp files left behind that a crash
// cleanup could confuse for state.
func TestCheckpointFlushDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	ckpt, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Record("k1", &core.Results{Cycles: 42}, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Record("k2", nil, "deadlock: stuck", sim.CodeDeadlock); err != nil {
		t.Fatal(err)
	}

	// Reload: both entries survive with payloads and codes intact.
	re, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := re.Results("k1"); !ok || r.Cycles != 42 {
		t.Fatalf("k1 lost: %+v ok=%v", r, ok)
	}
	msg, code, ok := re.Failed("k2")
	if !ok || msg != "deadlock: stuck" || code != sim.CodeDeadlock {
		t.Fatalf("k2 lost: msg=%q code=%q ok=%v", msg, code, ok)
	}

	// The atomic-write protocol must not leave temp files around.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("flush leaked temp file %q", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("state dir holds %d entries, want just the checkpoint", len(entries))
	}
}

// TestCheckpointFlushIntoMissingDir: when the containing directory vanishes
// (operator deleted the state dir mid-run), the flush fails with a typed
// *CheckpointError instead of panicking or silently dropping state.
func TestCheckpointFlushIntoMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gone")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ckpt, err := LoadCheckpoint(filepath.Join(dir, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	err = ckpt.Record("k", &core.Results{Cycles: 1}, "", "")
	var cerr *CheckpointError
	if !errors.As(err, &cerr) || cerr.Op != "flush" {
		t.Fatalf("got %v, want flush *CheckpointError", err)
	}
}

// TestWriteFileAtomic pins the helper's contract: replaces existing content,
// never leaves a partial file, and cleans its temp file on failure.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "second" {
		t.Fatalf("content = %q, want %q", data, "second")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir holds %d entries after two writes, want 1", len(entries))
	}
	if err := WriteFileAtomic(filepath.Join(dir, "no-such-subdir", "x"), []byte("y")); err == nil {
		t.Fatal("write into a missing directory must fail")
	}
}

// stubRun stands in for a simulation: the flush tests exercise only the
// checkpoint plumbing around it.
func stubRun(ctx context.Context, spec RunSpec, ins Instrument) (*core.Results, error) {
	return &core.Results{Cycles: uint64(spec.N)}, nil
}

// TestSweepFlushRetriesTransientFailure: a checkpoint write that fails twice
// and then succeeds costs the sweep nothing — the flush is retried and the
// state file ends up holding every run.
func TestSweepFlushRetriesTransientFailure(t *testing.T) {
	state := filepath.Join(t.TempDir(), "sweep.json")
	specs := []RunSpec{testSpec("sgemm", core.D0Baseline), testSpec("sobel", core.D1DiffSet)}
	var writes atomic.Int64
	runs, err := RunSweep(context.Background(), specs, SweepOptions{
		Workers:   1,
		StatePath: state,
		Run:       stubRun,
		WriteState: func(path string, data []byte) error {
			if writes.Add(1) <= 2 {
				return errors.New("injected transient write failure")
			}
			return WriteFileAtomic(path, data)
		},
	})
	if err != nil {
		t.Fatalf("sweep failed on a transient flush error: %v", err)
	}
	for i, r := range runs {
		if !r.OK() {
			t.Fatalf("run %d: %s", i, r.Err)
		}
	}
	if n := writes.Load(); n < 3 {
		t.Fatalf("%d writes, want the two failures retried", n)
	}
	ckpt, err := LoadCheckpoint(state)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if _, ok := ckpt.Results(SpecKey(spec)); !ok {
			t.Fatalf("state file lacks %v", spec)
		}
	}
}

// TestSweepStateConflictAborts: a fenced write refused with ErrStateConflict
// is permanent — it is neither retried nor repeated by the final flush, and
// the sweep stops with that error.
func TestSweepStateConflictAborts(t *testing.T) {
	state := filepath.Join(t.TempDir(), "sweep.json")
	specs := []RunSpec{testSpec("sgemm", core.D0Baseline), testSpec("sobel", core.D1DiffSet)}
	var writes, sims atomic.Int64
	_, err := RunSweep(context.Background(), specs, SweepOptions{
		Workers:   1,
		StatePath: state,
		Run: func(ctx context.Context, spec RunSpec, ins Instrument) (*core.Results, error) {
			sims.Add(1)
			return stubRun(ctx, spec, ins)
		},
		WriteState: func(path string, data []byte) error {
			writes.Add(1)
			return fmt.Errorf("fenced: %w", ErrStateConflict)
		},
	})
	if !errors.Is(err, ErrStateConflict) {
		t.Fatalf("sweep error %v, want ErrStateConflict", err)
	}
	if n := writes.Load(); n != 1 {
		t.Fatalf("WriteState called %d times, want 1", n)
	}
	if n := sims.Load(); n != 1 {
		t.Fatalf("%d runs simulated after the conflict aborted the sweep, want 1", n)
	}
}

// TestLoadIndentedCheckpoint resumes from a state file as earlier versions
// wrote it (indented JSON): every run comes from the file, none is
// simulated again, the results are those a fresh run gives, and the next
// flush rewrites the file compact without losing an entry.
func TestLoadIndentedCheckpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint-indented.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	specs := []RunSpec{
		{Bench: "sgemm", Design: core.D0Baseline, N: 16, LLCBytes: 1 << 20, Scale: 16},
		{Bench: "sgemm", Design: core.D1DiffSet, N: 16, LLCBytes: 1 << 20, Scale: 16},
	}
	simulated := 0
	runs, err := RunSweep(context.Background(), specs, SweepOptions{
		StatePath: path,
		Run: func(ctx context.Context, spec RunSpec, ins Instrument) (*core.Results, error) {
			simulated++
			return RunWith(ctx, spec, ins)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if simulated != 0 {
		t.Fatalf("%d runs simulated again, want 0", simulated)
	}
	fresh, err := RunSweep(context.Background(), specs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if !r.Resumed {
			t.Fatalf("run %s not resumed", r.Key)
		}
	}
	if err := DiffRunResults(fresh, runs); err != nil {
		t.Fatalf("resumed results differ from a fresh run: %v", err)
	}

	c, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	c.RecordBuffered("extra", fresh[0].Results, "", "")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out, []byte("\n")) {
		t.Fatal("flush wrote an indented file")
	}
	back, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(fresh, SweepRun{Key: "extra", Results: fresh[0].Results}) {
		got, ok := back.Results(r.Key)
		if !ok {
			t.Fatalf("entry %s lost by the rewrite", r.Key)
		}
		if err := DiffRunResults([]SweepRun{{Key: r.Key, Results: r.Results}}, []SweepRun{{Key: r.Key, Results: got}}); err != nil {
			t.Fatalf("entry %s changed by the rewrite: %v", r.Key, err)
		}
	}
}
