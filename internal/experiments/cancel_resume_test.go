package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"mdacache/internal/core"
	"mdacache/internal/sim"
)

// cancelSpecs is a small sweep with enough runs to cancel at interesting
// points. All specs are healthy and fast.
func cancelSpecs() []RunSpec {
	var specs []RunSpec
	for _, bench := range []string{"sgemm", "sobel", "ssyrk"} {
		for _, d := range []core.Design{core.D0Baseline, core.D1DiffSet} {
			specs = append(specs, testSpec(bench, d))
		}
	}
	return specs
}

// TestCancelResumeIdempotent is the resume-idempotency proof for sweep
// cancellation: cancel the sweep after k finished runs (for every meaningful
// k), resume from the checkpoint, and require the final outcome to be
// bit-identical to an uninterrupted golden run. Cancellation happens inside
// the OnRun hook — i.e. between a run finishing and its checkpoint flush —
// which is exactly the "cancelled mid-checkpoint" window; the checkpoint left
// behind must always be loadable and must never contain a memoised
// cancellation artefact.
func TestCancelResumeIdempotent(t *testing.T) {
	specs := cancelSpecs()
	golden, err := RunSweep(context.Background(), specs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for k := 1; k < len(specs); k++ {
		k := k
		t.Run(fmt.Sprintf("cancel-after-%d", k), func(t *testing.T) {
			state := filepath.Join(t.TempDir(), "sweep.json")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			finished := 0
			opt := SweepOptions{
				StatePath:  state,
				FlushEvery: 1,
				Workers:    2,
				OnRun: func(_ int, run SweepRun) {
					finished++
					if finished == k {
						cancel()
					}
				},
			}
			if _, err := RunSweep(ctx, specs, opt); err == nil {
				t.Fatal("cancelled sweep reported success")
			}

			// The interrupted checkpoint must be loadable, and must not
			// memoise any cancellation-induced (timeout) failure.
			ckpt, err := LoadCheckpoint(state)
			if err != nil {
				t.Fatalf("checkpoint left by a cancelled sweep is unloadable: %v", err)
			}
			for _, s := range specs {
				if msg, code, failed := ckpt.Failed(SpecKey(s)); failed {
					t.Fatalf("cancelled sweep memoised a failure for %v: %s (%s)", s, msg, code)
				}
			}
			if ckpt.Len() == 0 && k > 1 {
				t.Fatalf("cancel after %d runs persisted nothing", k)
			}

			// Resume: the sweep completes and matches the golden run
			// bit for bit (modulo provenance, which differs by design).
			resumed, err := RunSweep(context.Background(), specs, SweepOptions{StatePath: state})
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			if err := DiffRunResults(golden, resumed); err != nil {
				t.Fatalf("resumed sweep diverged from uninterrupted golden run: %v", err)
			}
			nResumed := 0
			for _, r := range resumed {
				if r.Resumed {
					nResumed++
				}
			}
			if nResumed == 0 && k > 1 {
				t.Fatal("resume re-simulated everything: checkpoint was ignored")
			}
		})
	}
}

// TestTimeoutFailureNotMemoised: a wall-clock timeout is host-speed-dependent,
// so RunSweep must not memoise it in the checkpoint — otherwise a sweep that
// was cancelled (or ran on a loaded machine) would replay the stale timeout on
// resume and diverge from an uninterrupted run forever. The injected executor
// times out a spec once; the resumed sweep must re-simulate it and succeed.
func TestTimeoutFailureNotMemoised(t *testing.T) {
	specs := []RunSpec{
		testSpec("sgemm", core.D0Baseline),
		testSpec("sobel", core.D1DiffSet),
	}
	golden, err := RunSweep(context.Background(), specs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	state := filepath.Join(t.TempDir(), "sweep.json")
	victim := SpecKey(specs[1])
	opt := SweepOptions{
		StatePath: state,
		Run: func(ctx context.Context, spec RunSpec, ins Instrument) (*core.Results, error) {
			if SpecKey(spec) == victim {
				return nil, &sim.Error{Component: "hierarchy", Op: "run", Err: sim.ErrTimeout, Detail: "injected"}
			}
			return RunWith(ctx, spec, ins)
		},
	}
	first, err := RunSweep(context.Background(), specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first[1].OK() || first[1].ErrCode != sim.CodeTimeout {
		t.Fatalf("injected timeout not reported: %+v", first[1])
	}

	// The timeout must not be in the checkpoint...
	ckpt, err := LoadCheckpoint(state)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, failed := ckpt.Failed(victim); failed {
		t.Fatal("wall-clock timeout was memoised in the checkpoint")
	}
	// ...while the healthy spec's success is.
	if _, ok := ckpt.Results(SpecKey(specs[0])); !ok {
		t.Fatal("healthy run missing from checkpoint")
	}

	// Resume without the fault: the timed-out spec re-simulates and the
	// sweep converges to the golden outcome.
	resumed, err := RunSweep(context.Background(), specs, SweepOptions{StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffRunResults(golden, resumed); err != nil {
		t.Fatalf("post-timeout resume diverged: %v", err)
	}
	if !resumed[0].Resumed || resumed[1].Resumed {
		t.Fatalf("resume provenance wrong: %+v / %+v", resumed[0], resumed[1])
	}
}

// TestDeterministicFailureIsMemoised: the counterpart pin — deterministic
// failures (cycle budget) are memoised with their taxonomy code and resumed
// without re-simulation.
func TestDeterministicFailureIsMemoised(t *testing.T) {
	spec := testSpec("sgemm", core.D0Baseline)
	spec.MaxCycles = 5
	state := filepath.Join(t.TempDir(), "sweep.json")
	first, err := RunSweep(context.Background(), []RunSpec{spec}, SweepOptions{StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	if first[0].OK() || first[0].ErrCode != sim.CodeCycleLimit {
		t.Fatalf("cycle-limit failure not coded: %+v", first[0])
	}
	resumed, err := RunSweep(context.Background(), []RunSpec{spec}, SweepOptions{StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed[0].Resumed || resumed[0].Attempts != 0 {
		t.Fatalf("deterministic failure was re-simulated: %+v", resumed[0])
	}
	if resumed[0].ErrCode != sim.CodeCycleLimit || resumed[0].Err != first[0].Err {
		t.Fatalf("memoised failure lost fidelity: %+v vs %+v", resumed[0], first[0])
	}
}

// TestOnRunHook pins the hook contract: one call per spec (simulated and
// resumed alike), serialized, with indices covering the whole sweep.
func TestOnRunHook(t *testing.T) {
	specs := cancelSpecs()
	state := filepath.Join(t.TempDir(), "sweep.json")
	seen := make(map[int]int)
	opt := SweepOptions{
		StatePath: state,
		Workers:   4,
		OnRun:     func(i int, run SweepRun) { seen[i]++ }, // works unlocked: calls are serialized
	}
	if _, err := RunSweep(context.Background(), specs, opt); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if seen[i] != 1 {
			t.Fatalf("OnRun called %d times for spec %d, want 1", seen[i], i)
		}
	}
	// Second pass: everything resumes, and the hook still fires per spec.
	seen = make(map[int]int)
	if _, err := RunSweep(context.Background(), specs, opt); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if seen[i] != 1 {
			t.Fatalf("resumed OnRun called %d times for spec %d, want 1", seen[i], i)
		}
	}
}
