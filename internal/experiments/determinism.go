package experiments

import (
	"context"
	"fmt"
	"reflect"

	"mdacache/internal/obs"
)

// CheckDeterminism is the parallel-sweep determinism harness: it runs specs
// once sequentially (Workers=1) and once with the given worker count, and
// returns a descriptive error if the two []SweepRun differ anywhere — spec,
// key, results (bit for bit, including fault-injection counters), failure
// annotation or ordering. A nil return is the proof the worker pool is a
// pure wall-clock optimisation.
//
// Every machine owns its event queue and seeds its fault RNG from the spec
// (mem.Params.FaultSeed), so this must hold for any worker count; a failure
// here means shared mutable state leaked into the simulation. opt's Workers
// field is overridden; its StatePath is ignored (checkpoints would make the
// second pass resume the first).
func CheckDeterminism(ctx context.Context, specs []RunSpec, workers int, opt SweepOptions) error {
	if workers < 2 {
		return fmt.Errorf("experiments: determinism check needs workers >= 2, got %d", workers)
	}
	opt.StatePath = ""
	opt.Log = nil

	opt.Workers = 1
	seq, err := RunSweep(ctx, specs, opt)
	if err != nil {
		return fmt.Errorf("experiments: determinism check: sequential sweep: %w", err)
	}
	opt.Workers = workers
	par, err := RunSweep(ctx, specs, opt)
	if err != nil {
		return fmt.Errorf("experiments: determinism check: parallel sweep (workers=%d): %w", workers, err)
	}
	return DiffRuns(seq, par)
}

// DiffRuns compares two sweep outcomes and returns nil when they are deeply
// equal, or an error naming the first divergence. Attempts and Resumed are
// compared too: a deterministic sweep simulates and resumes identically.
func DiffRuns(a, b []SweepRun) error {
	return diffRuns(a, b, true)
}

// DiffRunResults compares what the sweeps computed — keys, failure
// annotations and bit-for-bit results — while ignoring execution provenance
// (Attempts, Resumed, Profile). This is the comparison for crash-recovery
// proofs: a sweep killed mid-flight and resumed from its checkpoint must
// produce DiffRunResults-clean output against an uninterrupted golden run,
// even though the resumed runs carry different provenance by construction.
func DiffRunResults(a, b []SweepRun) error {
	return diffRuns(a, b, false)
}

func diffRuns(a, b []SweepRun, provenance bool) error {
	if len(a) != len(b) {
		return fmt.Errorf("experiments: sweeps differ in length: %d vs %d runs", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x.Key != y.Key:
			return fmt.Errorf("experiments: run %d: key %q vs %q (ordering diverged)", i, x.Key, y.Key)
		case x.Err != y.Err:
			return fmt.Errorf("experiments: run %d (%v): error %q vs %q", i, x.Spec, x.Err, y.Err)
		case x.ErrCode != y.ErrCode:
			return fmt.Errorf("experiments: run %d (%v): error code %q vs %q", i, x.Spec, x.ErrCode, y.ErrCode)
		case provenance && x.Attempts != y.Attempts:
			return fmt.Errorf("experiments: run %d (%v): attempts %d vs %d", i, x.Spec, x.Attempts, y.Attempts)
		case provenance && x.Resumed != y.Resumed:
			return fmt.Errorf("experiments: run %d (%v): resumed %v vs %v", i, x.Spec, x.Resumed, y.Resumed)
		case (x.Results == nil) != (y.Results == nil):
			return fmt.Errorf("experiments: run %d (%v): results presence %v vs %v",
				i, x.Spec, x.Results != nil, y.Results != nil)
		}
		if x.Results == nil {
			continue
		}
		if !reflect.DeepEqual(x.Results, y.Results) {
			return fmt.Errorf("experiments: run %d (%v): results diverge: %s",
				i, x.Spec, diffResults(x.Results, y.Results))
		}
	}
	return nil
}

// diffResults names the first field-level divergence between two result sets
// so a determinism failure points at the leaking subsystem instead of dumping
// two multi-KB structs. Metric snapshots get finer-grained treatment: the
// diff names the first diverging metric instead of printing two whole maps.
func diffResults(a, b interface{}) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	t := va.Type()
	for i := 0; i < t.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if !fa.CanInterface() {
			continue
		}
		if reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			continue
		}
		if sa, ok := fa.Interface().(obs.Snapshot); ok {
			sb := fb.Interface().(obs.Snapshot)
			return fmt.Sprintf("field %s: %s", t.Field(i).Name, obs.DiffSnapshots(sa, sb))
		}
		return fmt.Sprintf("field %s: %v vs %v", t.Field(i).Name, fa.Interface(), fb.Interface())
	}
	return "unlocated divergence"
}
