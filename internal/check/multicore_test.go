package check

import (
	"fmt"
	"strings"
	"testing"

	"mdacache/internal/clitest"
	"mdacache/internal/core"
	"mdacache/internal/isa"
)

// TestMCCorpusConforms is the multi-core headline invariant: every seed in
// the corpus passes all conformance checks on every applicable design with
// two cores sharing the hierarchy. Seeds are the corpus indices, so a
// failure here reproduces with `mdacheck -cores 2 -seed <n>` verbatim.
func TestMCCorpusConforms(t *testing.T) {
	n := corpusSize(t) / 2
	if n == 0 {
		n = 8
	}
	for seed := 0; seed < n; seed++ {
		if f := CheckMCSpec(MCSpecForSeed(uint64(seed), 2), Options{}); f != nil {
			t.Fatalf("seed %d failed:\n%s", seed, f)
		}
	}
}

// TestMCCorpusConformsFourCores extends a corpus slice to four cores and the
// ablation designs.
func TestMCCorpusConformsFourCores(t *testing.T) {
	n := corpusSize(t) / 8
	if n == 0 {
		n = 4
	}
	for seed := 0; seed < n; seed++ {
		if f := CheckMCSpec(MCSpecForSeed(uint64(seed), 4), Options{Designs: AllDesigns}); f != nil {
			t.Fatalf("seed %d (cores=4) failed:\n%s", seed, f)
		}
	}
}

// mcPinnedSeeds maps every conflict pattern to a pinned regression seed
// whose derived spec selects that pattern at cores=2. If MCSpecForSeed's
// derivation changes, this test fails loudly instead of the corpus silently
// losing a pattern family.
var mcPinnedSeeds = map[MCPattern]uint64{
	MCMixed:         0,
	MCTransposeRace: 1,
	MCHammerSet:     2,
	MCFalseSharing:  14,
}

// TestMCPinnedPatternSeeds runs one pinned seed per conflict pattern at both
// core counts — the per-pattern regression anchors the corpus test cannot
// provide (a corpus failure only names a seed, not a family).
func TestMCPinnedPatternSeeds(t *testing.T) {
	for p, seed := range mcPinnedSeeds {
		spec := MCSpecForSeed(seed, 2)
		if spec.Pattern != p {
			t.Fatalf("pinned seed %d derives pattern %s, want %s (update mcPinnedSeeds)",
				seed, spec.Pattern, p)
		}
		for _, cores := range []int{2, 4} {
			if f := CheckMCSpec(MCSpecForSeed(seed, cores), Options{Designs: AllDesigns}); f != nil {
				t.Fatalf("pinned %s seed %d (cores=%d) failed:\n%s", p, seed, cores, f)
			}
		}
	}
}

// TestMCGenerateDeterministic pins that an MCSpec fully determines its
// per-core streams.
func TestMCGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		spec := MCSpecForSeed(seed, 2+int(seed%3))
		a, b := GenerateMC(spec), GenerateMC(spec)
		if len(a) != spec.Cores || len(b) != spec.Cores {
			t.Fatalf("seed %d: got %d/%d streams, want %d", seed, len(a), len(b), spec.Cores)
		}
		for c := range a {
			if len(a[c]) != spec.OpsPerCore || len(b[c]) != spec.OpsPerCore {
				t.Fatalf("seed %d core %d: lengths %d/%d, spec wants %d",
					seed, c, len(a[c]), len(b[c]), spec.OpsPerCore)
			}
			for i := range a[c] {
				if a[c][i] != b[c][i] {
					t.Fatalf("seed %d core %d op %d differs: %v vs %v", seed, c, i, a[c][i], b[c][i])
				}
			}
		}
	}
}

// TestMCGenerateWellFormed checks structural properties of generated
// multi-core workloads: word-aligned addresses, canonical vector bases,
// row-only specs containing no column ops, and store values globally unique
// across all cores (the property that makes cross-core staleness
// undisguisable).
func TestMCGenerateWellFormed(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		spec := MCSpecForSeed(seed, 2+int(seed%3))
		streams := GenerateMC(spec)
		vals := make(map[uint64]int)
		for c, ops := range streams {
			for i, op := range ops {
				if op.Addr%isa.WordSize != 0 {
					t.Fatalf("seed %d core %d op %d: unaligned addr %#x", seed, c, i, op.Addr)
				}
				if op.Vector {
					id := isa.LineID{Base: op.Addr, Orient: op.Orient}
					if !id.IsCanonical() {
						t.Fatalf("seed %d core %d op %d: non-canonical vector base %v", seed, c, i, id)
					}
				}
				if spec.RowOnly && op.Orient != isa.Row {
					t.Fatalf("seed %d core %d op %d: column op in row-only workload", seed, c, i)
				}
				if op.Kind == isa.Store {
					if prev, dup := vals[op.Value]; dup {
						t.Fatalf("seed %d: store value %d reused (cores %d and %d)",
							seed, op.Value, prev, c)
					}
					vals[op.Value] = c
				}
			}
		}
	}
}

// TestMCPatternCoverage asserts the seed derivation spreads the corpus over
// every conflict pattern and both orientation regimes.
func TestMCPatternCoverage(t *testing.T) {
	patterns := make(map[MCPattern]int)
	var rowOnly int
	const n = 500
	for seed := uint64(0); seed < n; seed++ {
		spec := MCSpecForSeed(seed, 2)
		patterns[spec.Pattern]++
		if spec.RowOnly {
			rowOnly++
		}
	}
	for p := MCPattern(0); p < numMCPatterns; p++ {
		if patterns[p] < n/20 {
			t.Errorf("pattern %s: only %d/%d seeds", p, patterns[p], n)
		}
	}
	if rowOnly < n/8 || rowOnly > n/2 {
		t.Errorf("row-only specs: %d/%d, want roughly a quarter", rowOnly, n)
	}
}

// TestMCFlattenSplitRoundTrip pins that FlattenMC/SplitMC are inverses, so
// shrinking a flattened schedule always yields a valid per-core workload.
func TestMCFlattenSplitRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		spec := MCSpecForSeed(seed, 2+int(seed%3))
		streams := GenerateMC(spec)
		back := SplitMC(FlattenMC(streams), spec.Cores)
		if len(back) != len(streams) {
			t.Fatalf("seed %d: round trip produced %d streams, want %d", seed, len(back), len(streams))
		}
		for c := range streams {
			if len(back[c]) != len(streams[c]) {
				t.Fatalf("seed %d core %d: round trip length %d, want %d",
					seed, c, len(back[c]), len(streams[c]))
			}
			for i := range streams[c] {
				if back[c][i] != streams[c][i] {
					t.Fatalf("seed %d core %d op %d: round trip changed %v to %v",
						seed, c, i, streams[c][i], back[c][i])
				}
			}
		}
	}
}

// TestMCBrokenDupCoherenceCaught is the acceptance-criteria mutation test
// under shared hierarchies: with the duplicate-coherence eviction disabled
// on every level of a Cores=2 machine (the dup-evict mutant), the harness
// must detect stale values on some corpus seed, and the failure must carry
// a shrunk schedule plus a `mdacheck -cores 2 -seed ...` repro.
func TestMCBrokenDupCoherenceCaught(t *testing.T) {
	if !clitest.UnderMutant(t) {
		return
	}
	opt := Options{
		// The mutation lives in the duplicate path, which 1P1L doesn't have.
		Designs: []core.Design{core.D1DiffSet, core.D1SameSet, core.D2Sparse},
		Faults:  FaultOff,
	}
	for seed := uint64(0); seed < 200; seed++ {
		spec := MCSpecForSeed(seed, 2)
		if spec.RowOnly {
			continue // duplicates need both orientations
		}
		f := CheckMCSpec(spec, opt)
		if f == nil {
			continue
		}
		if want := fmt.Sprintf("mdacheck -cores 2 -seed %#x", seed); f.Repro() != want {
			t.Fatalf("repro = %q, want %q", f.Repro(), want)
		}
		if !f.Shrunk || len(f.Ops) == 0 || len(f.Ops) > spec.Cores*spec.OpsPerCore {
			t.Fatalf("shrunk schedule malformed: shrunk=%v len=%d", f.Shrunk, len(f.Ops))
		}
		if !strings.Contains(f.String(), "reproduce with: mdacheck -cores 2 -seed") {
			t.Fatalf("failure report lacks repro line:\n%s", f)
		}
		t.Logf("mutation caught at seed %d, shrunk to %d ops across %d cores",
			seed, len(f.Ops), f.CoresTouched())
		return
	}
	t.Fatal("broken duplicate coherence was not detected on any of 200 multi-core seeds")
}

// TestMCBrokenSnoopShrinksToCrossCoreWitness is the tentpole's shrinking
// criterion: with cross-core snoop invalidation disabled (a bug only
// expressible on a multi-core machine), the harness must catch it and ddmin
// the schedule down to a minimal witness that necessarily spans at least two
// cores — one core's store, another core's stale reuse. A witness confined
// to one core would mean the shrinker destroyed the cross-core structure of
// the bug. Runs under the store-snoop mutant.
func TestMCBrokenSnoopShrinksToCrossCoreWitness(t *testing.T) {
	if !clitest.UnderMutant(t) {
		return
	}
	opt := Options{Faults: FaultOff}
	for seed := uint64(0); seed < 200; seed++ {
		spec := MCSpecForSeed(seed, 2)
		f := CheckMCSpec(spec, opt)
		if f == nil {
			continue
		}
		if !f.Shrunk {
			t.Fatalf("failure was not shrunk:\n%s", f)
		}
		if got := f.CoresTouched(); got < 2 {
			t.Fatalf("shrunk witness touches %d core(s); a snoop bug needs a cross-core schedule:\n%s", got, f)
		}
		if len(f.Ops) > 16 {
			t.Fatalf("shrunk witness still has %d ops, want a minimal store/stale-read pair:\n%s", len(f.Ops), f)
		}
		t.Logf("snoop break caught at seed %d, shrunk to %d ops across %d cores",
			seed, len(f.Ops), f.CoresTouched())
		return
	}
	t.Fatal("broken snoop coherence was not detected on any of 200 multi-core seeds")
}

// TestMCCheckOpsHandwritten feeds a hand-written cross-core false-sharing
// workload through CheckStreams with a zero-value rig, pinning that the API
// works for non-generated streams: two cores ping-pong stores to different
// words of the same row line, then each reads the other's word.
func TestMCCheckOpsHandwritten(t *testing.T) {
	line := isa.LineID{Base: 0, Orient: isa.Row}
	var s0, s1 []isa.Op
	for i := uint64(0); i < 8; i++ {
		s0 = append(s0, isa.Op{Addr: line.WordAddr(0), Kind: isa.Store, Value: 1000 + i*16, Orient: isa.Row})
		s0 = append(s0, isa.Op{Addr: line.WordAddr(1), Orient: isa.Row, Gap: 2})
		s1 = append(s1, isa.Op{Addr: line.WordAddr(1), Kind: isa.Store, Value: 5000 + i*16, Orient: isa.Row})
		s1 = append(s1, isa.Op{Addr: line.WordAddr(0), Orient: isa.Row, Gap: 2})
	}
	if vio := CheckStreams([][]isa.Op{s0, s1}, Rig{}, Options{Faults: FaultOff}); len(vio) != 0 {
		t.Fatalf("hand-written false-sharing workload failed: %v", vio)
	}
}
