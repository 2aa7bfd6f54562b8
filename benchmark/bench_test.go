package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"mdacache/internal/experiments"
	"mdacache/internal/serve"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 100)
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.Build", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "core.Machine.RunTraces", Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 1, Name: "compiler.Compile", Start: 90, End: 120},      // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{"bench": 100 - 50 - 10, "core": 30 + 30, "compiler": 30}
	for layer, ns := range want {
		if int64(got[layer]) != ns {
			t.Errorf("%s self time = %d, want %d", layer, got[layer], ns)
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the metrics and
// workloads the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i], w.name)
		}
	}
}

func TestJobGenIsSeededAndRepeatsAboutHalf(t *testing.T) {
	universe := len(serveUniverse())
	a, b := newJobGens(7, universe), newJobGens(7, universe)
	for j := 0; j < 200; j++ {
		for c := range a {
			ja, jb := a[c].next(), b[c].next()
			if !reflect.DeepEqual(ja, jb) {
				t.Fatalf("client %d job %d differs between two generators of one seed", c, j)
			}
			in := make(map[int]bool)
			for _, i := range ja {
				if in[i] {
					t.Fatalf("client %d job %d names spec %d twice", c, j, i)
				}
				in[i] = true
			}
		}
	}
	// Replay client 0 and count slots that name an earlier spec.
	var slots, repeats int
	seen := make(map[int]bool)
	g := newJobGens(7, universe)[0]
	for j := 0; j < 200; j++ {
		job := g.next()
		for _, i := range job {
			slots++
			if seen[i] {
				repeats++
			}
		}
		for _, i := range job {
			seen[i] = true
		}
	}
	if frac := float64(repeats) / float64(slots); frac < 0.4 || frac > 0.6 {
		t.Errorf("repeated slots = %.2f of %d, want about half", frac, slots)
	}
}

// TestServeUniverseKeysAreDistinct requires every serve-jobs spec to have
// its own experiments.SpecKey. The service keys its spec cache and per-job
// checkpoints by SpecKey, which leaves out fields such as Tech and
// SubBuffers (README.md, "Known defect"), so two specs that share a key
// would be served one result.
func TestServeUniverseKeysAreDistinct(t *testing.T) {
	universe := serveUniverse()
	seen := make(map[string]int)
	for i, req := range universe {
		spec, err := req.Spec()
		if err != nil {
			t.Fatal(err)
		}
		key := experiments.SpecKey(spec)
		if j, ok := seen[key]; ok {
			t.Fatalf("specs %d and %d share the service key %q", j, i, key)
		}
		seen[key] = i
	}
	// Each client draws about 1,600 fresh specs in a 30-second run on a
	// 2-CPU host. A client that ran out would only repeat, which would change
	// the workload's mix, so leave room for a program twice as fast.
	if len(universe) < 2*2*1600 {
		t.Errorf("universe holds %d specs, want at least 6400", len(universe))
	}
}

// TestPerturbedSweepResultFails runs one kernel-sweep spec against a
// reference with one statistic changed: the run must count as failed.
func TestPerturbedSweepResultFails(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepSpecs()[len(sweepSpecs())-1]
	r := newReport()
	measureSweep(r, refs, []experiments.RunSpec{spec}, 1, 0, 1, nil)
	if r.failed != 0 || r.attempted != 1 {
		t.Fatalf("unperturbed: attempted %d, failed %d: %v", r.attempted, r.failed, r.problems)
	}

	for name, perturb := range map[string]func(*resultRef){
		"cycles":      func(x *resultRef) { x.Cycles++ },
		"l2 hits":     func(x *resultRef) { x.Levels[len(x.Levels)-2].Hits++ },
		"col reads":   func(x *resultRef) { x.MemReads[1]++ },
		"snoop flush": func(x *resultRef) { x.SnoopFlushes++ },
	} {
		bad := make(references)
		for k, v := range refs {
			bad[k] = v
		}
		x := bad[refKey(spec)]
		x.Levels = append([]levelRef(nil), x.Levels...)
		perturb(&x)
		bad[refKey(spec)] = x
		r := newReport()
		measureSweep(r, bad, []experiments.RunSpec{spec}, 1, 0, 1, nil)
		if r.failed != 1 {
			t.Errorf("%s perturbed: failed = %d, want 1", name, r.failed)
		}
	}
}

// TestPerturbedServedRunFails hands verifyServe a done job whose run
// differs from a direct simulation: the job must count as failed.
func TestPerturbedServedRunFails(t *testing.T) {
	req := serve.SpecRequest{Bench: "htap1", Design: "1P2L", N: 16, Scale: serveScale}
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := experiments.RunSweep(context.Background(), []experiments.RunSpec{spec}, experiments.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	job := func() *jobRecord {
		run, err := viaJSON(runs[0])
		if err != nil {
			t.Fatal(err)
		}
		return &jobRecord{specs: []int{0}, status: serve.JobStatus{State: serve.StateDone, Runs: []experiments.SweepRun{run}}}
	}

	verify := func(jobs ...*jobRecord) *report {
		seg := &serveSegment{jobs: jobs}
		for _, j := range jobs {
			seg.served.add(j)
		}
		r := newReport()
		if err := verifyServe(r, seg, nil, nil); err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := verify(job()); r.failed != 0 {
		t.Fatalf("unperturbed served run failed: %v", r.problems)
	}

	// Perturb the first served run of the spec: the job is caught against
	// the direct run, and the later, correct job against the first one.
	bad := job()
	bad.status.Runs[0].Results.Cycles++
	if r := verify(bad); r.failed != 1 {
		t.Errorf("perturbed served run: failed %d, want 1", r.failed)
	}
	if r := verify(job(), bad); r.failed != 1 || r.attempted != 2 {
		t.Errorf("good then perturbed run: attempted %d, failed %d; want 2, 1: %v", r.attempted, r.failed, r.problems)
	}
	unfinished := job()
	unfinished.status.State = serve.StateFailed
	if r := verify(unfinished); r.failed != 1 {
		t.Errorf("failed job: failed %d, want 1", r.failed)
	}
}

// TestShortRuns runs each workload briefly in both modes and requires
// every check to pass and every metric of the mode to be printed.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadDefs {
		for _, mode := range []string{"untraced", "traced"} {
			traced := mode == "traced"
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				seconds := 1.0
				if w.name == "kernel-sweep" && !traced {
					seconds = 0.01 // still at least 100 runs
				}
				o := options{workload: w.name, seed: 3, seconds: seconds, trace: traced, outDir: t.TempDir()}
				r, err := w.run(o)
				if err != nil {
					t.Fatal(err)
				}
				out, err := r.result(o)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct {
					t.Errorf("attempted %d, failed %d: %v", out.Attempted, out.Failed, r.problems)
				}
			})
		}
	}
}
