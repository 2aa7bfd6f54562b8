package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/obs"
)

// traceCounterPairs maps each cache-level trace event to the level counter
// it must equal: every instant or span of that kind is emitted exactly where
// the counter is bumped, so an unsampled trace conserves the counter.
var traceCounterPairs = []struct{ event, counter string }{
	{"hit", "hits"},
	{"miss", "misses"},
	{"fill", "fills_issued"},
	{"writeback", "writebacks"},
	{"mshr_alloc", "fills_issued"},
	{"mshr_retire", "fills_issued"},
	{"mshr_coalesce", "mshr_coalesced"},
	{"mshr_stall", "mshr_stalls"},
	{"dup_evict", "duplicate_evictions"},
	{"dup_flush", "duplicate_flushes"},
	{"prefetch", "prefetch_issued"},
}

// TestTraceConservesLevelCounters runs every design on one and two cores
// with an unsampled tracer and checks, per cache level, that the number of
// events of every cache and MSHR kind equals the level's registry counter.
// A level that counts without tracing (or traces without counting) shows up
// here as a mismatch.
func TestTraceConservesLevelCounters(t *testing.T) {
	for _, d := range []Design{D0Baseline, D1DiffSet, D1SameSet, D2Sparse, D2Dense, D3AllTile} {
		for _, cores := range []int{1, 2} {
			d, cores := d, cores
			t.Run(fmt.Sprintf("%s/cores=%d", d, cores), func(t *testing.T) {
				t.Parallel()
				var buf bytes.Buffer
				tr := obs.NewTracer(&buf, obs.TraceConfig{SampleEvery: 1})
				cfg := mcConfig(d, cores)
				cfg.Tracer = tr
				m, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				traces := make([]isa.TraceReader, cores)
				for c := range traces {
					traces[c] = isa.NewSliceTrace(randomTrace(uint64(11+c), 400, 6, d == D0Baseline))
				}
				res, err := m.RunTraces(traces...)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.Close(); err != nil {
					t.Fatal(err)
				}
				events := countTraceEvents(t, &buf)
				for _, lvl := range m.Levels {
					name := lvl.Stats().Name
					for _, p := range traceCounterPairs {
						want, ok := res.Metrics.Counter(lowerName(name) + "." + p.counter)
						if !ok {
							t.Fatalf("%s: no %s counter", name, p.counter)
						}
						if got := events[name+"/"+p.event]; got != want {
							t.Errorf("%s: %d %q events, %s counter %d", name, got, p.event, p.counter, want)
						}
					}
				}
				if events["L1/hit"]+events["L1c0/hit"] == 0 {
					t.Error("no L1 hit events traced: the trace exercises nothing")
				}
			})
		}
	}
}

// countTraceEvents tallies a JSONL trace's cache and MSHR events by
// "component/event".
func countTraceEvents(t *testing.T, buf *bytes.Buffer) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var ev struct{ Cat, Comp, Event string }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if ev.Cat == "cache" || ev.Cat == "mshr" {
			out[ev.Comp+"/"+ev.Event]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
