package check

import (
	"fmt"
	"strings"
	"testing"

	"mdacache/internal/clitest"
	"mdacache/internal/isa"
)

// TestRequestCorpusConforms is the request-workload headline invariant:
// every corpus seed of both families passes all conformance checks on every
// applicable design, single-core and under multi-core contention. A failure
// reproduces with `mdacheck -workload W -cores C -seed <n>` verbatim.
func TestRequestCorpusConforms(t *testing.T) {
	n := corpusSize(t) / 8
	if n == 0 {
		n = 4
	}
	for _, workload := range []string{"kv", "htap"} {
		for _, cores := range []int{1, 2, 4} {
			for seed := 0; seed < n; seed++ {
				f, err := CheckRequest(RequestSpecForSeed(workload, uint64(seed), cores), Options{})
				if err != nil {
					t.Fatal(err)
				}
				if f != nil {
					t.Fatalf("%s seed %d (cores=%d) failed:\n%s", workload, seed, cores, f)
				}
			}
		}
	}
}

// TestRequestSpecDerivation pins structural properties of derived specs: a
// pure function of (workload, seed, cores), per-core op budgets that scale
// with the core count, and every knob within the generator's accepted range
// (GenerateRequest must never error on a derived spec).
func TestRequestSpecDerivation(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		cores := 1 + int(seed%4)
		a := RequestSpecForSeed("kv", seed, cores)
		b := RequestSpecForSeed("kv", seed, cores)
		if a != b {
			t.Fatalf("seed %d: derivation not deterministic: %v vs %v", seed, a, b)
		}
		if a.Req.Seed != seed || a.Req.Cores != cores {
			t.Fatalf("seed %d: derived spec disagrees with inputs: %v", seed, a)
		}
		if a.Req.Ops < int64(32*cores) {
			t.Fatalf("seed %d: op budget %d too small for %d cores", seed, a.Req.Ops, cores)
		}
		streams, err := GenerateRequest(a)
		if err != nil {
			t.Fatalf("seed %d: derived spec rejected by generator: %v", seed, err)
		}
		if len(streams) != cores {
			t.Fatalf("seed %d: %d streams, want %d", seed, len(streams), cores)
		}
		total := 0
		for _, s := range streams {
			total += len(s)
		}
		if int64(total) != a.Req.Ops {
			t.Fatalf("seed %d: streams carry %d ops, spec wants %d", seed, total, a.Req.Ops)
		}
	}
}

// TestRequestLayoutMatchesOrientation pins the property the harness relies
// on to pick designs: 1-D specs generate row-only streams (so the row-only
// baseline stays in the design set), and the harness never feeds a column
// op to a design that cannot execute it.
func TestRequestLayoutMatchesOrientation(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		spec := RequestSpecForSeed("htap", seed, 2)
		streams, err := GenerateRequest(spec)
		if err != nil {
			t.Fatal(err)
		}
		for c, ops := range streams {
			for i, op := range ops {
				if !spec.Req.Logical2D && op.Orient == isa.Col {
					t.Fatalf("seed %d core %d op %d: column op from a 1-D spec", seed, c, i)
				}
			}
		}
	}
}

// TestRequestBrokenSnoopCaught is the mutation test for the request family:
// with cross-core snoop invalidation disabled (the store-snoop mutant), the
// HTAP mix (point stores racing other cores' reads of the same hot rows)
// must produce a stale read the oracle catches, and the shrunk witness must
// carry a usable repro line.
func TestRequestBrokenSnoopCaught(t *testing.T) {
	if !clitest.UnderMutant(t) {
		return
	}
	opt := Options{Faults: FaultOff}
	for seed := uint64(0); seed < 100; seed++ {
		spec := RequestSpecForSeed("htap", seed, 2)
		f, err := CheckRequest(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		if f == nil {
			continue
		}
		if want := fmt.Sprintf("mdacheck -workload htap -cores 2 -seed %#x", seed); f.Repro() != want {
			t.Fatalf("repro = %q, want %q", f.Repro(), want)
		}
		if !f.Shrunk || len(f.Ops) == 0 || int64(len(f.Ops)) > spec.Req.Ops {
			t.Fatalf("shrunk schedule malformed: shrunk=%v len=%d", f.Shrunk, len(f.Ops))
		}
		if !strings.Contains(f.String(), "reproduce with: mdacheck -workload htap") {
			t.Fatalf("failure report lacks repro line:\n%s", f)
		}
		t.Logf("snoop break caught at seed %d, shrunk to %d ops", seed, len(f.Ops))
		return
	}
	t.Fatal("broken snoop coherence was not detected on any of 100 request seeds")
}
