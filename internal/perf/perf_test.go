package perf

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareMismatchedBaselines is the regression for the silent-skip bug:
// scenarios present in only one baseline (a rename or a dropped benchmark)
// must be reported as skipped, not quietly excluded from the geomean.
func TestCompareMismatchedBaselines(t *testing.T) {
	old := &Baseline{Results: []Result{
		{Name: "A", NsPerOp: 200},
		{Name: "B", NsPerOp: 100},
		{Name: "Dropped", NsPerOp: 50},
		{Name: "Unusable", NsPerOp: 80},
	}}
	new := &Baseline{Results: []Result{
		{Name: "A", NsPerOp: 100},
		{Name: "B", NsPerOp: 100},
		{Name: "Renamed", NsPerOp: 60},
		{Name: "Unusable", NsPerOp: 0},
	}}

	deltas, geomean, skipped := Compare(old, new)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %+v, want A and B only", deltas)
	}
	if deltas[0].Name != "A" || deltas[0].Speedup != 2 {
		t.Fatalf("delta A = %+v, want 2x", deltas[0])
	}
	// geomean over {2, 1} = sqrt(2).
	if geomean < 1.41 || geomean > 1.42 {
		t.Fatalf("geomean = %v, want ~1.414", geomean)
	}
	want := []string{
		"Dropped (only in old)",
		"Renamed (only in new)",
		"Unusable (unusable measurement)",
	}
	if len(skipped) != len(want) {
		t.Fatalf("skipped = %v, want %v", skipped, want)
	}
	for i, s := range want {
		if skipped[i] != s {
			t.Errorf("skipped[%d] = %q, want %q", i, skipped[i], s)
		}
	}

	// The rendered table names every skip — an unmatched pair must be loud.
	out := FormatCompare(deltas, geomean, skipped)
	for _, s := range want {
		if !strings.Contains(out, "SKIPPED "+s+": not compared") {
			t.Errorf("FormatCompare output missing skip line for %q:\n%s", s, out)
		}
	}
}

// TestCompareMatchedBaselines: a fully-matched pair reports nothing skipped.
func TestCompareMatchedBaselines(t *testing.T) {
	b := &Baseline{Results: []Result{{Name: "A", NsPerOp: 100}, {Name: "B", NsPerOp: 50}}}
	deltas, geomean, skipped := Compare(b, b)
	if len(skipped) != 0 {
		t.Fatalf("skipped = %v, want none", skipped)
	}
	if len(deltas) != 2 || geomean != 1 {
		t.Fatalf("deltas %v geomean %v, want 2 deltas at 1x", deltas, geomean)
	}
	if out := FormatCompare(deltas, geomean, skipped); strings.Contains(out, "SKIPPED") {
		t.Fatalf("FormatCompare invented a skip:\n%s", out)
	}
}

// TestCompareDisjointBaselines: nothing matches, so there is no geomean and
// everything is skipped.
func TestCompareDisjointBaselines(t *testing.T) {
	old := &Baseline{Results: []Result{{Name: "A", NsPerOp: 100}}}
	new := &Baseline{Results: []Result{{Name: "B", NsPerOp: 100}}}
	deltas, geomean, skipped := Compare(old, new)
	if len(deltas) != 0 || geomean != 0 {
		t.Fatalf("deltas %v geomean %v, want none", deltas, geomean)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped = %v, want both scenarios", skipped)
	}
}

// TestCommittedBaselinesLoad: every BENCH_*.json at the repository root
// still loads, including BENCH_3, recorded on the since-deleted sharded
// engine with a shards field the Baseline no longer carries. CI compares
// against BENCH_5, so BENCH_4 → BENCH_5 must line up scenario for scenario.
func TestCommittedBaselinesLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("found %d committed baselines (%v), want BENCH_1..BENCH_5", len(paths), paths)
	}
	loaded := map[string]*Baseline{}
	for _, p := range paths {
		b, err := LoadBaseline(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(b.Results) == 0 {
			t.Fatalf("%s: no results", p)
		}
		loaded[filepath.Base(p)] = b
	}
	old, new := loaded["BENCH_4.json"], loaded["BENCH_5.json"]
	if old == nil || new == nil {
		t.Fatal("BENCH_4.json or BENCH_5.json missing")
	}
	deltas, _, skipped := Compare(old, new)
	if len(skipped) != 0 {
		t.Fatalf("Compare(BENCH_4, BENCH_5) skipped %v", skipped)
	}
	if len(deltas) != len(new.Results) {
		t.Fatalf("Compare(BENCH_4, BENCH_5) matched %d of %d scenarios", len(deltas), len(new.Results))
	}
}
