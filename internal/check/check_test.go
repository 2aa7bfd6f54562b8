package check

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"mdacache/internal/clitest"
	"mdacache/internal/core"
	"mdacache/internal/isa"
)

// corpusSize returns how many seeds the corpus test runs: a bounded quick
// corpus by default (PR CI), the acceptance soak with MDACHECK_TRACES=10000
// (nightly CI), and a reduced corpus under -short.
func corpusSize(t *testing.T) int {
	if env := os.Getenv("MDACHECK_TRACES"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("MDACHECK_TRACES=%q is not a positive integer", env)
		}
		return n
	}
	if testing.Short() {
		return 32
	}
	return 256
}

// TestCorpusConforms is the headline invariant: every seed in the corpus
// passes all conformance checks on every applicable design. Seeds are the
// corpus indices themselves, so a failure reported here reproduces with
// `mdacheck -seed <n>` verbatim.
func TestCorpusConforms(t *testing.T) {
	n := corpusSize(t)
	for seed := 0; seed < n; seed++ {
		if f := CheckSpec(SpecForSeed(uint64(seed)), Options{}); f != nil {
			t.Fatalf("seed %d failed:\n%s", seed, f)
		}
	}
}

// TestCorpusConformsAllDesigns extends a slice of the corpus to the ablation
// designs (dense-fill LLC, all-tile hierarchy).
func TestCorpusConformsAllDesigns(t *testing.T) {
	n := corpusSize(t) / 4
	if n == 0 {
		n = 8
	}
	for seed := 0; seed < n; seed++ {
		if f := CheckSpec(SpecForSeed(uint64(seed)), Options{Designs: AllDesigns}); f != nil {
			t.Fatalf("seed %d failed:\n%s", seed, f)
		}
	}
}

// TestCorpusFaultsBothWays forces fault injection on and off over the same
// seeds: functional results must be identical either way (faults cost time,
// never data).
func TestCorpusFaultsBothWays(t *testing.T) {
	n := corpusSize(t) / 4
	if n == 0 {
		n = 8
	}
	for _, mode := range []FaultMode{FaultOff, FaultOn} {
		for seed := 0; seed < n; seed++ {
			if f := CheckSpec(SpecForSeed(uint64(seed)), Options{Faults: mode}); f != nil {
				t.Fatalf("seed %d (faults mode %d) failed:\n%s", seed, mode, f)
			}
		}
	}
}

// TestRefCacheAgreesWithFlat is the reference model's self-check: the
// single-copy cached replay must be observationally identical to the flat
// replay on every corpus trace. If these two ever disagree, the reference
// semantics themselves are broken and no conformance verdict can be trusted.
func TestRefCacheAgreesWithFlat(t *testing.T) {
	n := corpusSize(t)
	for seed := 0; seed < n; seed++ {
		ops := Generate(SpecForSeed(uint64(seed)))
		fv, fm := Replay(ops)
		cv, cm := ReplayCached(ops)
		for i := range fv {
			if fv[i] != cv[i] {
				t.Fatalf("seed %d op %d (%v): flat=%d cached=%d", seed, i, ops[i], fv[i], cv[i])
			}
		}
		for addr, v := range fm {
			if cm[addr] != v {
				t.Fatalf("seed %d: final[%#x] flat=%d cached=%d", seed, addr, v, cm[addr])
			}
		}
		for addr, v := range cm {
			if fm[addr] != v {
				t.Fatalf("seed %d: cached wrote [%#x]=%d, flat has %d", seed, addr, v, fm[addr])
			}
		}
	}
}

// TestGenerateDeterministic pins that a spec fully determines its trace.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		spec := SpecForSeed(seed)
		a, b := Generate(spec), Generate(spec)
		if len(a) != len(b) || len(a) != spec.Ops {
			t.Fatalf("seed %d: lengths %d/%d, spec wants %d", seed, len(a), len(b), spec.Ops)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: op %d differs: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}

// TestGenerateWellFormed checks structural properties of generated traces:
// word-aligned addresses, canonical vector bases, row-only specs containing
// no column ops, and globally unique store values.
func TestGenerateWellFormed(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		spec := SpecForSeed(seed)
		ops := Generate(spec)
		vals := make(map[uint64]bool)
		for i, op := range ops {
			if op.Addr%isa.WordSize != 0 {
				t.Fatalf("seed %d op %d: unaligned addr %#x", seed, i, op.Addr)
			}
			if op.Vector {
				id := isa.LineID{Base: op.Addr, Orient: op.Orient}
				if !id.IsCanonical() {
					t.Fatalf("seed %d op %d: non-canonical vector base %v", seed, i, id)
				}
			}
			if spec.RowOnly && op.Orient != isa.Row {
				t.Fatalf("seed %d op %d: column op in row-only trace", seed, i)
			}
			if op.Kind == isa.Store {
				if vals[op.Value] {
					t.Fatalf("seed %d op %d: store value %d reused", seed, i, op.Value)
				}
				vals[op.Value] = true
			}
		}
	}
}

// TestPatternCoverage asserts the seed-derivation actually spreads the
// corpus over every pattern, both orientation regimes, both config variants
// and both fault settings — otherwise "10,000 seeds pass" silently means
// less than it claims.
func TestPatternCoverage(t *testing.T) {
	patterns := make(map[Pattern]int)
	var rowOnly, faults, variant1 int
	const n = 500
	for seed := uint64(0); seed < n; seed++ {
		spec := SpecForSeed(seed)
		patterns[spec.Pattern]++
		if spec.RowOnly {
			rowOnly++
		}
		if spec.Faults {
			faults++
		}
		if spec.CfgVariant == 1 {
			variant1++
		}
	}
	for p := Pattern(0); p < numPatterns; p++ {
		if patterns[p] < n/20 {
			t.Errorf("pattern %s: only %d/%d seeds", p, patterns[p], n)
		}
	}
	if rowOnly < n/8 || rowOnly > n/2 {
		t.Errorf("row-only specs: %d/%d, want roughly a quarter", rowOnly, n)
	}
	if faults < n/4 || variant1 < n/4 {
		t.Errorf("coverage skew: faults=%d variant1=%d of %d", faults, variant1, n)
	}
}

// TestBrokenCoherenceCaught is the acceptance-criteria mutation test: with
// the Fig. 9 write-to-duplicate eviction disabled (the dup-evict mutant, see
// TestMutants), the harness must detect stale duplicate values on at least
// one corpus seed — and the failure must carry a shrunk trace and a one-line
// repro command.
func TestBrokenCoherenceCaught(t *testing.T) {
	if !clitest.UnderMutant(t) {
		return
	}
	opt := Options{
		// The mutation lives in the duplicate path, which 1P1L doesn't have.
		Designs: []core.Design{core.D1DiffSet, core.D1SameSet, core.D2Sparse},
		Faults:  FaultOff,
	}
	for seed := uint64(0); seed < 200; seed++ {
		spec := SpecForSeed(seed)
		if spec.RowOnly {
			continue // duplicates need both orientations
		}
		f := CheckSpec(spec, opt)
		if f == nil {
			continue
		}
		if want := fmt.Sprintf("mdacheck -seed %#x", seed); f.Repro() != want {
			t.Fatalf("repro = %q, want %q", f.Repro(), want)
		}
		if !f.Shrunk || len(f.Ops) == 0 || len(f.Ops) > len(Generate(spec)) {
			t.Fatalf("shrunk trace malformed: shrunk=%v len=%d", f.Shrunk, len(f.Ops))
		}
		if !strings.Contains(f.String(), "reproduce with: mdacheck -seed") {
			t.Fatalf("failure report lacks repro line:\n%s", f)
		}
		t.Logf("mutation caught at seed %d, shrunk to %d ops", seed, len(f.Ops))
		return
	}
	t.Fatal("broken duplicate coherence was not detected on any of 200 seeds")
}

// TestBrokenCoherenceShrinksSmall pins shrink quality on one known-caught
// seed: the minimal stale-duplicate witness is a handful of ops (store,
// overlapping access pattern, stale read), so anything large means shrinking
// regressed. Runs under the dup-evict mutant.
func TestBrokenCoherenceShrinksSmall(t *testing.T) {
	if !clitest.UnderMutant(t) {
		return
	}
	opt := Options{
		Designs: []core.Design{core.D1DiffSet},
		Faults:  FaultOff,
	}
	for seed := uint64(0); seed < 200; seed++ {
		spec := SpecForSeed(seed)
		if spec.RowOnly {
			continue
		}
		if f := CheckSpec(spec, opt); f != nil {
			if len(f.Ops) > 16 {
				t.Fatalf("seed %d: shrunk trace still has %d ops:\n%s", seed, len(f.Ops), f)
			}
			return
		}
	}
	t.Fatal("no failing seed found to shrink")
}

// TestShrinkOps exercises the shrinker against a synthetic predicate with a
// known minimal witness: the trace fails iff it contains both marker ops.
func TestShrinkOps(t *testing.T) {
	mk := func(n int) []isa.Op {
		ops := make([]isa.Op, n)
		for i := range ops {
			ops[i] = isa.Op{Addr: uint64(i) * isa.WordSize}
		}
		return ops
	}
	const a, b = 17, 61
	fails := func(ops []isa.Op) bool {
		var hasA, hasB bool
		for _, op := range ops {
			hasA = hasA || op.Addr == a*isa.WordSize
			hasB = hasB || op.Addr == b*isa.WordSize
		}
		return hasA && hasB
	}
	ops := mk(100)
	if !fails(ops) {
		t.Fatal("setup: full trace must fail")
	}
	shrunk := shrinkSlice(ops, fails)
	if len(shrunk) != 2 {
		t.Fatalf("shrunk to %d ops, want exactly the 2 markers", len(shrunk))
	}
	if !fails(shrunk) {
		t.Fatal("shrunk trace no longer fails")
	}
}

// TestShrinkOpsPrefix checks the prefix phase: when failure is triggered by
// a single op, the shrinker isolates it.
func TestShrinkOpsPrefix(t *testing.T) {
	ops := make([]isa.Op, 50)
	for i := range ops {
		ops[i] = isa.Op{Addr: uint64(i) * isa.WordSize}
	}
	fails := func(c []isa.Op) bool {
		for _, op := range c {
			if op.Addr == 23*isa.WordSize {
				return true
			}
		}
		return false
	}
	shrunk := shrinkSlice(ops, fails)
	if len(shrunk) != 1 || shrunk[0].Addr != 23*isa.WordSize {
		t.Fatalf("shrunk = %v, want the single trigger op", shrunk)
	}
}

// TestCheckOpsHandwritten feeds a hand-written transpose trace (the
// canonical duplicate-coherence workload) through CheckStreams as one stream
// with a zero-value rig, pinning that the API works for non-generated traces.
func TestCheckOpsHandwritten(t *testing.T) {
	var ops []isa.Op
	// Write tile 0 row-wise, read it back column-wise, then overwrite one
	// column and re-read row-wise.
	for r := uint64(0); r < isa.LinesPerTile; r++ {
		ops = append(ops, isa.Op{
			Addr: r * isa.LineSize, Kind: isa.Store,
			Value: 1000 + r*16, Orient: isa.Row, Vector: true,
		})
	}
	for c := uint64(0); c < isa.WordsPerLine; c++ {
		ops = append(ops, isa.Op{Addr: c * isa.WordSize, Orient: isa.Col, Vector: true})
	}
	ops = append(ops, isa.Op{
		Addr: 3 * isa.WordSize, Kind: isa.Store,
		Value: 5000, Orient: isa.Col, Vector: true,
	})
	for r := uint64(0); r < isa.LinesPerTile; r++ {
		for w := uint64(0); w < isa.WordsPerLine; w++ {
			ops = append(ops, isa.Op{Addr: r*isa.LineSize + w*isa.WordSize, Orient: isa.Row})
		}
	}
	if vio := CheckStreams([][]isa.Op{ops}, Rig{}, Options{Faults: FaultOff}); len(vio) != 0 {
		t.Fatalf("hand-written transpose trace failed: %v", vio)
	}
}
