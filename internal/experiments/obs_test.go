package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"mdacache/internal/core"
	"mdacache/internal/isa"
	"mdacache/internal/obs"
)

// obsSpec is the golden-test design point (see golden_test.go): small enough
// to run in milliseconds, sized to exercise duplicate coherence and memory
// writes on the MDA designs.
func obsSpec(d core.Design) RunSpec {
	return RunSpec{Bench: "sobel", N: 16, Design: d, LLCBytes: 256 * 1024, Scale: 16}
}

var obsDesigns = []core.Design{core.D0Baseline, core.D1DiffSet, core.D1SameSet, core.D2Sparse}

// TestMetricsOracle cross-checks the registry snapshot against the legacy
// stat structs on every design: both are views of the same storage, so every
// canonical counter must equal its LevelStats / mem.Stats / CPU field. Any
// divergence means a counter was registered against the wrong storage.
func TestMetricsOracle(t *testing.T) {
	for _, d := range obsDesigns {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			r, err := Run(obsSpec(d))
			if err != nil {
				t.Fatal(err)
			}
			m := r.Metrics
			check := func(name string, want uint64) {
				got, ok := m.Counter(name)
				if !ok {
					t.Errorf("counter %s missing from snapshot", name)
					return
				}
				if got != want {
					t.Errorf("counter %s = %d, legacy struct says %d", name, got, want)
				}
			}
			check("cpu.ops", r.Ops)
			check("cpu.vectors", r.Vectors)
			check("cpu.loads", r.Loads)
			check("cpu.stores", r.Stores)
			check("cpu.order_stalls", r.OrderStalls)
			for _, lv := range r.Levels {
				p := strings.ToLower(lv.Name) + "."
				check(p+"accesses", lv.Accesses)
				check(p+"hits", lv.Hits)
				check(p+"misses", lv.Misses)
				check(p+"hits_wrong_orient", lv.HitsWrongOrient)
				check(p+"partial_hits", lv.PartialHits)
				check(p+"fills_issued", lv.FillsIssued)
				check(p+"writebacks", lv.Writebacks)
				check(p+"writebacks_in", lv.WritebacksIn)
				check(p+"evictions", lv.Evictions)
				check(p+"bytes_from_below", lv.BytesFromBelow)
				check(p+"bytes_to_below", lv.BytesToBelow)
				check(p+"duplicate_evictions", lv.DuplicateEvictions)
				check(p+"duplicate_flushes", lv.DuplicateFlushes)
				check(p+"mshr_coalesced", lv.MSHRCoalesced)
				check(p+"mshr_stalls", lv.MSHRStalls)
				check(p+"extra_tag_probes", lv.ExtraTagProbes)
				check(p+"prefetch_issued", lv.PrefetchIssued)
				check(p+"prefetch_useful", lv.PrefetchUseful)
			}
			check("mem.reads.row", r.Mem.Reads[isa.Row])
			check("mem.reads.col", r.Mem.Reads[isa.Col])
			check("mem.writes.row", r.Mem.Writes[isa.Row])
			check("mem.writes.col", r.Mem.Writes[isa.Col])
			check("mem.buffer_hits.row", r.Mem.BufferHits[isa.Row])
			check("mem.buffer_hits.col", r.Mem.BufferHits[isa.Col])
			check("mem.activations.row", r.Mem.Activations[isa.Row])
			check("mem.activations.col", r.Mem.Activations[isa.Col])
			check("mem.bytes_read", r.Mem.BytesRead)
			check("mem.bytes_written", r.Mem.BytesWritten)
			check("mem.read_latency_sum", r.Mem.ReadLatency)
			check("mem.write_retries", r.Mem.WriteRetries)
			check("mem.write_faults", r.Mem.WriteFaults)
			if got := m.Floats["mem.energy.activation_pj"]; got != r.Mem.Energy.ActivationPJ {
				t.Errorf("mem.energy.activation_pj = %g, legacy %g", got, r.Mem.Energy.ActivationPJ)
			}

			// Registry-only metrics: the event count and latency histograms
			// must be populated whenever the machine did work.
			if ev, _ := m.Counter("sim.events"); ev == 0 {
				t.Error("sim.events is zero after a full run")
			}
			h, ok := m.Hists["mem.read_latency"]
			if !ok || h.Count != r.Mem.TotalReads() {
				t.Errorf("mem.read_latency count = %d (present=%v), want %d reads",
					h.Count, ok, r.Mem.TotalReads())
			}
			if h.Sum != r.Mem.ReadLatency {
				t.Errorf("mem.read_latency sum = %d, legacy ReadLatency %d", h.Sum, r.Mem.ReadLatency)
			}
		})
	}
}

// TestMetricsGoldenValues pins the snapshot aggregates against the golden
// table of TestGoldenSweepStats, proving the registry path reports the same
// numbers the legacy reporting pinned there.
func TestMetricsGoldenValues(t *testing.T) {
	for _, g := range goldenRows {
		g := g
		t.Run(g.name(), func(t *testing.T) {
			r, err := Run(g.spec())
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Metrics.SumCounters(".hits"); got != g.hits {
				t.Errorf("sum of *.hits = %d, golden %d", got, g.hits)
			}
			if got := r.Metrics.SumCounters(".misses"); got != g.misses {
				t.Errorf("sum of *.misses = %d, golden %d", got, g.misses)
			}
		})
	}
}

// TestTracedRunIsObservationOnly runs the same spec untraced and traced (both
// formats) and requires bit-identical Results: the tracer must be a pure
// observer. The emitted streams must also pass schema validation — the same
// check CI runs via `mdatrace -validate`.
func TestTracedRunIsObservationOnly(t *testing.T) {
	spec := obsSpec(core.D1DiffSet)
	base, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []obs.Format{obs.FormatJSONL, obs.FormatChrome} {
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf, obs.TraceConfig{Format: format})
		r, err := RunInstrumented(spec, Instrument{Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if tr.Emitted() == 0 {
			t.Fatalf("format %v: traced run emitted nothing", format)
		}
		if !reflect.DeepEqual(base, r) {
			t.Errorf("format %v: tracing changed the results: %s",
				format, diffResults(base, r))
		}
		sum, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("format %v: emitted trace fails validation: %v", format, err)
		}
		if uint64(sum.Events) != tr.Emitted() {
			t.Errorf("format %v: validator saw %d events, tracer emitted %d",
				format, sum.Events, tr.Emitted())
		}
	}
}

// TestRunProfilePhases checks the profile breakdown: all four phases present,
// simulate carries the run's cycles and a non-zero event count.
func TestRunProfilePhases(t *testing.T) {
	p := &obs.RunProfile{Name: "test"}
	r, err := RunInstrumented(obsSpec(core.D1DiffSet), Instrument{Profile: p})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"workload", "compile", "build", "simulate"} {
		found := false
		for _, ph := range p.Phases {
			if ph.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("phase %q missing from profile %+v", name, p.Phases)
		}
	}
	sim := p.Phase("simulate")
	if sim.Cycles != r.Cycles {
		t.Errorf("simulate phase cycles = %d, want %d", sim.Cycles, r.Cycles)
	}
	if sim.Events == 0 {
		t.Error("simulate phase events = 0")
	}
	if p.Total() <= 0 {
		t.Error("profile total wall time is zero")
	}
}

// TestSweepProfileOption checks that profiled sweeps attach a profile per
// simulated run, keep profiles out of determinism comparisons, and that the
// metric snapshots inside Results survive DiffRuns across worker counts.
func TestSweepProfileOption(t *testing.T) {
	specs := []RunSpec{obsSpec(core.D0Baseline), obsSpec(core.D1DiffSet)}
	opt := SweepOptions{Profile: true}
	a, err := RunSweep(context.Background(), specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range a {
		if !run.OK() {
			t.Fatalf("%v failed: %s", run.Spec, run.Err)
		}
		if run.Profile == nil || len(run.Profile.Phases) == 0 {
			t.Errorf("%v: no profile attached", run.Spec)
		}
		if len(run.Results.Metrics.Counters) == 0 {
			t.Errorf("%v: results carry no metric snapshot", run.Spec)
		}
	}
	opt.Workers = 4
	b, err := RunSweep(context.Background(), specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock profiles differ between the sweeps; DiffRuns must not care.
	if err := DiffRuns(a, b); err != nil {
		t.Fatalf("profiled sweeps diverge: %v", err)
	}
}

// TestProfileTableRenders smoke-tests the profile renderer on real data.
func TestProfileTableRenders(t *testing.T) {
	p := &obs.RunProfile{Name: "x"}
	if _, err := RunInstrumented(obsSpec(core.D0Baseline), Instrument{Profile: p}); err != nil {
		t.Fatal(err)
	}
	out := ProfileTable([]*obs.RunProfile{p, nil}).String()
	for _, want := range []string{"simulate", "total", "x"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile table missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkRunInstrumented quantifies disabled-instrumentation overhead: the
// zero-value Instrument is the default path every sweep run takes, so compare
// against BenchmarkSweep history when touching event call sites.
func BenchmarkRunInstrumented(b *testing.B) {
	spec := obsSpec(core.D1DiffSet)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunInstrumented(spec, Instrument{}); err != nil {
			b.Fatal(err)
		}
	}
}
