package experiments

import (
	"fmt"
	"testing"

	"mdacache/internal/core"
	"mdacache/internal/isa"
)

// TestGoldenSweepStats pins the exact key Results fields of one small kernel
// (sobel, N=16, 1 KB-class scaled LLC) on every evaluated design — a
// regression guard for the cache models, duplicate-coherence policy and
// memory scheduler, in the style of workloads.TestGoldenOpCounts. If a
// deliberate model change shifts these, re-derive them with a one-off run
// and update; an *accidental* shift is the test doing its job. The spec is
// sized so the MDA designs exercise duplicate eviction/flush (Fig. 9) and
// the baseline evicts enough to write main memory.
// goldenRow is one pinned design point: goldenSpec(design) with the row's
// core count and replacement policy.
type goldenRow struct {
	design core.Design
	cores  int
	repl   core.ReplPolicy
	cycles uint64 // end-to-end execution time
	ops    uint64 // trace length actually executed
	hits   uint64 // demand hits, summed over cache levels
	misses uint64 // demand misses, summed over cache levels
	dupEv  uint64 // Fig. 9 duplicate evictions, all levels
	dupFl  uint64 // Fig. 9 duplicate flushes, all levels
	rowRd  uint64 // main-memory row-line reads
	colRd  uint64 // main-memory column-line reads
	rowWr  uint64 // main-memory row-line writes
	colWr  uint64 // main-memory column-line writes
}

func goldenSpec(d core.Design) RunSpec {
	return RunSpec{Bench: "sobel", N: 16, Design: d, LLCBytes: 256 * 1024, Scale: 16}
}

func (g goldenRow) spec() RunSpec {
	s := goldenSpec(g.design)
	s.Cores, s.Repl = g.cores, g.repl
	return s
}

func (g goldenRow) name() string {
	n := g.design.String()
	if g.cores > 1 {
		n += fmt.Sprintf("/cores=%d", g.cores)
	}
	if g.repl != core.ReplLRU {
		n += "/" + g.repl.String()
	}
	return n
}

// goldenRows covers every design, the dense 2P2L fill path, tile caches as
// L1s (alone and under two cores' coherence), and the SRRIP and Random
// victim paths over both cache arrays.
var goldenRows = []goldenRow{
	{design: core.D0Baseline, cycles: 2813, ops: 1968, hits: 1504, misses: 1050, rowRd: 107},
	{design: core.D1DiffSet, cycles: 3399, ops: 1968, hits: 714, misses: 1382, dupEv: 35, dupFl: 2, rowRd: 4, colRd: 60, colWr: 7},
	{design: core.D1SameSet, cycles: 2958, ops: 1968, hits: 1051, misses: 1045, dupEv: 23, dupFl: 1, rowRd: 4, colRd: 60},
	{design: core.D2Sparse, cycles: 3399, ops: 1968, hits: 716, misses: 1380, dupEv: 35, dupFl: 2, rowRd: 2, colRd: 60},
	{design: core.D2Dense, cycles: 2988, ops: 1968, hits: 1101, misses: 995, dupEv: 27, dupFl: 1, colRd: 64},
	{design: core.D3AllTile, cycles: 2794, ops: 1968, hits: 1049, misses: 1045, colRd: 60},
	{design: core.D3AllTile, cores: 2, cycles: 1550, ops: 1968, hits: 553, misses: 1602, rowRd: 1, colRd: 60},
	{design: core.D2Sparse, repl: core.ReplSRRIP, cycles: 3399, ops: 1968, hits: 716, misses: 1380, dupEv: 39, dupFl: 2, rowRd: 2, colRd: 60},
	{design: core.D2Dense, repl: core.ReplRandom, cycles: 3099, ops: 1968, hits: 1005, misses: 1097, dupEv: 35, dupFl: 2, colRd: 64},
}

// TestGoldenSweepStats pins the exact key Results fields of one small kernel
// (sobel, N=16, 1 KB-class scaled LLC) on every evaluated design — a
// regression guard for the cache models, duplicate-coherence policy and
// memory scheduler, in the style of workloads.TestGoldenOpCounts. If a
// deliberate model change shifts these, re-derive them with a one-off run
// and update; an *accidental* shift is the test doing its job. The spec is
// sized so the MDA designs exercise duplicate eviction/flush (Fig. 9) and
// the baseline evicts enough to write main memory.
func TestGoldenSweepStats(t *testing.T) {
	for _, g := range goldenRows {
		g := g
		t.Run(g.name(), func(t *testing.T) {
			r, err := Run(g.spec())
			if err != nil {
				t.Fatal(err)
			}
			var hits, misses, dupEv, dupFl uint64
			for _, lv := range r.Levels {
				hits += lv.Hits
				misses += lv.Misses
				dupEv += lv.DuplicateEvictions
				dupFl += lv.DuplicateFlushes
			}
			check := func(name string, got, want uint64) {
				if got != want {
					t.Errorf("%s: got %d, want %d", name, got, want)
				}
			}
			check("cycles", r.Cycles, g.cycles)
			check("ops", r.Ops, g.ops)
			check("hits", hits, g.hits)
			check("misses", misses, g.misses)
			check("duplicate evictions", dupEv, g.dupEv)
			check("duplicate flushes", dupFl, g.dupFl)
			check("mem row reads", r.Mem.Reads[isa.Row], g.rowRd)
			check("mem col reads", r.Mem.Reads[isa.Col], g.colRd)
			check("mem row writes", r.Mem.Writes[isa.Row], g.rowWr)
			check("mem col writes", r.Mem.Writes[isa.Col], g.colWr)
		})
	}
	// The pinned numbers must show the paper's structural effects, or the
	// golden table is guarding the wrong configuration: MDA designs fetch
	// true columns (column reads dominate) and exercise duplicate coherence.
	r, err := Run(goldenSpec(core.D1DiffSet))
	if err != nil {
		t.Fatal(err)
	}
	var dups uint64
	for _, lv := range r.Levels {
		dups += lv.DuplicateEvictions
	}
	if r.Mem.Reads[isa.Col] == 0 || dups == 0 {
		t.Error("golden spec no longer exercises column reads / duplicate coherence; re-size it")
	}
}
