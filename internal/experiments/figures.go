package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/stats"
	"mdacache/internal/workloads"
)

// Suite runs the paper's figures at a chosen scale. Scale=1 is the paper's
// configuration (512×512 inputs, 32K/256K/1–4M caches); Scale=k divides the
// matrix dimension by k and cache capacities by k², preserving every
// working-set/capacity ratio.
type Suite struct {
	Scale   int
	Benches []string
	Log     io.Writer // optional progress log

	// Checkpoint, when set, persists every finished simulation so an
	// interrupted figure sweep resumes instead of restarting (see
	// LoadCheckpoint).
	Checkpoint *Checkpoint

	// MaxCycles and Timeout bound each simulation the suite launches
	// (0 = unlimited); see RunSpec.
	MaxCycles uint64
	Timeout   time.Duration

	// Profiles, when non-nil, collects a phase profile for every
	// simulation the suite actually runs (checkpoint-resumed and
	// cache-shared runs contribute nothing — they cost no simulation
	// time). Safe under concurrent figure generation.
	Profiles *obs.ProfileLog

	// mu guards cache and inflight; the suite is safe for concurrent
	// figure generation (mdabench -workers runs independent figures in
	// parallel). Simulations are deterministic per spec, so concurrency
	// changes wall-clock time only, never results.
	mu       sync.Mutex
	cache    map[RunSpec]*core.Results
	inflight map[RunSpec]chan struct{}
	logMu    sync.Mutex
}

// NewSuite returns a suite at the given scale over all seven benchmarks.
func NewSuite(scale int, log io.Writer) *Suite {
	return &Suite{
		Scale:    scale,
		Benches:  append([]string(nil), workloads.Names...),
		Log:      log,
		cache:    make(map[RunSpec]*core.Results),
		inflight: make(map[RunSpec]chan struct{}),
	}
}

// BigN returns the scaled counterpart of the paper's 512×512 input.
func (s *Suite) BigN() int { return 512 / s.Scale }

// SmallN returns the scaled counterpart of the paper's 256×256 input.
func (s *Suite) SmallN() int { return 256 / s.Scale }

// LLCSizes returns the paper's L3 capacities (at paper scale; RunSpec
// scaling divides them).
func LLCSizes() []int {
	return []int{1 * core.MB, 3 * core.MB / 2, 2 * core.MB, 4 * core.MB}
}

// MDADesigns are the three MDACache configurations evaluated throughout.
var MDADesigns = []core.Design{core.D1DiffSet, core.D1SameSet, core.D2Sparse}

func (s *Suite) logf(format string, args ...interface{}) {
	if s.Log != nil {
		s.logMu.Lock()
		fmt.Fprintf(s.Log, format+"\n", args...)
		s.logMu.Unlock()
	}
}

// run executes (or reuses) one simulation. Concurrent callers asking for the
// same spec share one simulation (single-flight): the first caller runs it,
// the rest block until the result lands in the cache.
func (s *Suite) run(spec RunSpec) (*core.Results, error) {
	spec.Scale = s.Scale
	spec.MaxCycles = s.MaxCycles
	spec.Timeout = s.Timeout
	for {
		s.mu.Lock()
		if s.cache == nil {
			s.cache = make(map[RunSpec]*core.Results)
		}
		if s.inflight == nil {
			s.inflight = make(map[RunSpec]chan struct{})
		}
		if r, ok := s.cache[spec]; ok {
			s.mu.Unlock()
			return r, nil
		}
		if wait, ok := s.inflight[spec]; ok {
			s.mu.Unlock()
			<-wait
			// The leader finished (or failed); re-check the cache. On
			// failure every waiter re-runs and reports the error itself.
			s.mu.Lock()
			if r, ok := s.cache[spec]; ok {
				s.mu.Unlock()
				return r, nil
			}
			s.mu.Unlock()
			continue
		}
		ch := make(chan struct{})
		s.inflight[spec] = ch
		s.mu.Unlock()
		r, err := s.simulate(spec)
		s.mu.Lock()
		if err == nil {
			s.cache[spec] = r
		}
		delete(s.inflight, spec)
		s.mu.Unlock()
		close(ch)
		return r, err
	}
}

// simulate runs one spec, consulting the checkpoint first.
func (s *Suite) simulate(spec RunSpec) (*core.Results, error) {
	key := SpecKey(spec)
	if s.Checkpoint != nil {
		if r, ok := s.Checkpoint.Results(key); ok {
			s.logf("resuming %v from checkpoint", spec)
			return r, nil
		}
	}
	s.logf("running %v ...", spec)
	var ins Instrument
	if s.Profiles != nil {
		ins.Profile = &obs.RunProfile{Name: spec.String()}
	}
	r, err := RunInstrumented(spec, ins)
	if err != nil {
		return nil, err
	}
	s.Profiles.Add(ins.Profile)
	s.logf("  -> %d cycles, %d ops, %.1f MB memory traffic",
		r.Cycles, r.Ops, float64(r.Mem.TotalBytes())/1e6)
	if s.Checkpoint != nil {
		if cerr := s.Checkpoint.Record(key, r, "", ""); cerr != nil {
			s.logf("checkpoint write failed: %v", cerr)
		}
	}
	return r, nil
}

func (s *Suite) baseSpec(bench string, d core.Design, llc int) RunSpec {
	return RunSpec{Bench: bench, N: s.BigN(), Design: d, LLCBytes: llc}
}

// Fig10 reproduces the access-type distribution (row/column ×
// scalar/vector) by data volume for both input sizes.
func (s *Suite) Fig10() (*stats.Table, error) {
	t := stats.NewTable("Fig. 10: access orientation and size preferences (% of data volume)",
		"bench", "input", "row-scalar", "row-vector", "col-scalar", "col-vector")
	for _, n := range []int{s.SmallN(), s.BigN()} {
		for _, b := range s.Benches {
			mix, err := measureMix(b, n)
			if err != nil {
				return nil, err
			}
			t.AddRow(b, fmt.Sprintf("%dx%d", n, n),
				100*mix.Share(isa.Row, false), 100*mix.Share(isa.Row, true),
				100*mix.Share(isa.Col, false), 100*mix.Share(isa.Col, true))
		}
	}
	return t, nil
}

// Fig11 reproduces L1 hit rates normalized to the prefetching 1P1L
// baseline, with the 1 MB LLC and the large input.
func (s *Suite) Fig11() (*stats.Table, error) {
	t := stats.NewTable("Fig. 11: L1 hit rate normalized to 1P1L (1MB LLC)",
		"bench", "1P2L", "1P2L_SameSet", "2P2L")
	means := make([][]float64, len(MDADesigns))
	for _, b := range s.Benches {
		base, err := s.run(s.baseSpec(b, core.D0Baseline, 1*core.MB))
		if err != nil {
			return nil, err
		}
		row := []interface{}{b}
		for di, d := range MDADesigns {
			r, err := s.run(s.baseSpec(b, d, 1*core.MB))
			if err != nil {
				return nil, err
			}
			norm := ratio(r.L1().HitRate(), base.L1().HitRate())
			means[di] = append(means[di], norm)
			row = append(row, norm)
		}
		t.AddRow(row...)
	}
	t.AddRow("Average", stats.Mean(means[0]), stats.Mean(means[1]), stats.Mean(means[2]))
	return t, nil
}

// Fig12 reproduces normalized execution cycles for every LLC capacity.
func (s *Suite) Fig12() ([]*stats.Table, error) {
	var tables []*stats.Table
	for _, llc := range LLCSizes() {
		t := stats.NewTable(
			fmt.Sprintf("Fig. 12: total cycles normalized to 1P1L+prefetch (%.1fMB LLC)", float64(llc)/float64(core.MB)),
			"bench", "1P2L", "1P2L_SameSet", "2P2L")
		means := make([][]float64, len(MDADesigns))
		for _, b := range s.Benches {
			base, err := s.run(s.baseSpec(b, core.D0Baseline, llc))
			if err != nil {
				return nil, err
			}
			row := []interface{}{b}
			for di, d := range MDADesigns {
				r, err := s.run(s.baseSpec(b, d, llc))
				if err != nil {
					return nil, err
				}
				norm := ratio(float64(r.Cycles), float64(base.Cycles))
				means[di] = append(means[di], norm)
				row = append(row, norm)
			}
			t.AddRow(row...)
		}
		// Normalized ratios average geometrically (the paper's convention
		// for speedup-style figures); GeoMean skips non-positive entries,
		// so a degenerate zero-cycle ratio cannot zero out the whole row.
		t.AddRow("Average", stats.GeoMean(means[0]), stats.GeoMean(means[1]), stats.GeoMean(means[2]))
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig13 reproduces the cache-resident study: the small input on a
// two-level hierarchy whose 2 MB L2 is the LLC.
func (s *Suite) Fig13() (*stats.Table, error) {
	t := stats.NewTable("Fig. 13: normalized cycles, cache-resident input (2MB L2 LLC)",
		"bench", "1P2L", "2P2L")
	designs := []core.Design{core.D1DiffSet, core.D2Sparse}
	means := make([][]float64, len(designs))
	for _, b := range s.Benches {
		spec := RunSpec{Bench: b, N: s.SmallN(), Design: core.D0Baseline, LLCBytes: 2 * core.MB, TwoLevel: true}
		base, err := s.run(spec)
		if err != nil {
			return nil, err
		}
		row := []interface{}{b}
		for di, d := range designs {
			spec.Design = d
			r, err := s.run(spec)
			if err != nil {
				return nil, err
			}
			norm := ratio(float64(r.Cycles), float64(base.Cycles))
			means[di] = append(means[di], norm)
			row = append(row, norm)
		}
		t.AddRow(row...)
	}
	t.AddRow("Average", stats.GeoMean(means[0]), stats.GeoMean(means[1]))
	return t, nil
}

// Fig14 reproduces LLC accesses and LLC↔memory transfer bytes normalized
// to the baseline (1 MB LLC, large input).
func (s *Suite) Fig14() (*stats.Table, error) {
	t := stats.NewTable("Fig. 14: LLC accesses and LLC-memory bytes normalized to 1P1L (1MB LLC)",
		"bench", "acc 1P2L", "acc SameSet", "acc 2P2L", "B 1P2L", "B SameSet", "B 2P2L")
	accMeans := make([][]float64, len(MDADesigns))
	byteMeans := make([][]float64, len(MDADesigns))
	for _, b := range s.Benches {
		base, err := s.run(s.baseSpec(b, core.D0Baseline, 1*core.MB))
		if err != nil {
			return nil, err
		}
		accs := make([]float64, len(MDADesigns))
		bytes := make([]float64, len(MDADesigns))
		for di, d := range MDADesigns {
			r, err := s.run(s.baseSpec(b, d, 1*core.MB))
			if err != nil {
				return nil, err
			}
			accs[di] = ratio(float64(r.LLC().Accesses+r.LLC().WritebacksIn), float64(base.LLC().Accesses+base.LLC().WritebacksIn))
			bytes[di] = ratio(float64(r.Mem.TotalBytes()), float64(base.Mem.TotalBytes()))
			accMeans[di] = append(accMeans[di], accs[di])
			byteMeans[di] = append(byteMeans[di], bytes[di])
		}
		t.AddRow(b, accs[0], accs[1], accs[2], bytes[0], bytes[1], bytes[2])
	}
	t.AddRow("Average",
		stats.Mean(accMeans[0]), stats.Mean(accMeans[1]), stats.Mean(accMeans[2]),
		stats.Mean(byteMeans[0]), stats.Mean(byteMeans[1]), stats.Mean(byteMeans[2]))
	return t, nil
}

// Fig15Result is one benchmark's occupancy traces per level.
type Fig15Result struct {
	Bench  string
	Levels []string
	Series []stats.Series // column-line occupancy fraction per level
}

// Fig15 reproduces the column-occupancy-over-time study for sgemm and
// ssyrk on the 1P2L hierarchy.
func (s *Suite) Fig15() ([]Fig15Result, error) {
	var out []Fig15Result
	for _, b := range []string{"sgemm", "ssyrk"} {
		spec := s.baseSpec(b, core.D1DiffSet, 1*core.MB)
		spec.OccupancyInterval = 50000
		r, err := s.run(spec)
		if err != nil {
			return nil, err
		}
		res := Fig15Result{Bench: b, Levels: []string{"L1", "L2", "L3"}}
		for li := range res.Levels {
			ser := stats.Series{Name: res.Levels[li]}
			for _, sample := range r.Occupancy {
				ser.X = append(ser.X, sample.Cycle)
				ser.Y = append(ser.Y, sample.ColFraction(li))
			}
			res.Series = append(res.Series, ser)
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig16 reproduces the 2P2L write-asymmetry sensitivity: +20 cycles per
// STT array write.
func (s *Suite) Fig16() (*stats.Table, error) {
	t := stats.NewTable("Fig. 16: 2P2L with +20-cycle asymmetric writes (normalized to 1P1L)",
		"bench", "2P2L", "2P2L-Slow_Write", "delta%")
	var deltas []float64
	for _, b := range s.Benches {
		base, err := s.run(s.baseSpec(b, core.D0Baseline, 1*core.MB))
		if err != nil {
			return nil, err
		}
		sym, err := s.run(s.baseSpec(b, core.D2Sparse, 1*core.MB))
		if err != nil {
			return nil, err
		}
		slowSpec := s.baseSpec(b, core.D2Sparse, 1*core.MB)
		slowSpec.SlowWrite = 20
		slow, err := s.run(slowSpec)
		if err != nil {
			return nil, err
		}
		ns := ratio(float64(sym.Cycles), float64(base.Cycles))
		nw := ratio(float64(slow.Cycles), float64(base.Cycles))
		deltas = append(deltas, 100*(nw-ns))
		t.AddRow(b, ns, nw, 100*(nw-ns))
	}
	t.AddRow("Average", "", "", stats.Mean(deltas))
	return t, nil
}

// Fig17 reproduces the fast-main-memory sensitivity: every design against
// a 1.6× faster memory, normalized to the (slow-memory) 1P1L baseline.
func (s *Suite) Fig17() (*stats.Table, error) {
	t := stats.NewTable("Fig. 17: 1.6x faster main memory (all normalized to 1P1L, base memory)",
		"bench", "1P1L-fast", "1P2L", "1P2L-fast", "SameSet-fast", "2P2L-fast")
	type cell struct {
		d    core.Design
		fast bool
	}
	cols := []cell{
		{core.D0Baseline, true},
		{core.D1DiffSet, false},
		{core.D1DiffSet, true},
		{core.D1SameSet, true},
		{core.D2Sparse, true},
	}
	means := make([][]float64, len(cols))
	for _, b := range s.Benches {
		base, err := s.run(s.baseSpec(b, core.D0Baseline, 1*core.MB))
		if err != nil {
			return nil, err
		}
		row := []interface{}{b}
		for ci, c := range cols {
			spec := s.baseSpec(b, c.d, 1*core.MB)
			spec.FastMem = c.fast
			r, err := s.run(spec)
			if err != nil {
				return nil, err
			}
			norm := ratio(float64(r.Cycles), float64(base.Cycles))
			means[ci] = append(means[ci], norm)
			row = append(row, norm)
		}
		t.AddRow(row...)
	}
	avg := []interface{}{"Average"}
	for ci := range cols {
		avg = append(avg, stats.Mean(means[ci]))
	}
	t.AddRow(avg...)
	return t, nil
}

// AblationLayout quantifies the §IV-C Design-0 note: a 1P1L hierarchy
// forced onto the 2-D-optimised (tiled) layout, which the paper reports as
// roughly a 2× slowdown.
func (s *Suite) AblationLayout() (*stats.Table, error) {
	t := stats.NewTable("Ablation: 1P1L on 2-D-optimized (tiled) layout, normalized to 1P1L on 1-D layout",
		"bench", "tiled/linear cycles")
	var vals []float64
	// A representative subset at the small input: the mismatched-layout
	// baselines are the slowest simulations in the repository (every
	// scalar access misses), and this ablation is a direction check.
	for _, b := range ablationBenches(s.Benches) {
		base := s.baseSpec(b, core.D0Baseline, 1*core.MB)
		base.N = s.SmallN()
		rb, err := s.run(base)
		if err != nil {
			return nil, err
		}
		spec := base
		spec.LayoutOverride = layoutTiled
		r, err := s.run(spec)
		if err != nil {
			return nil, err
		}
		v := ratio(float64(r.Cycles), float64(rb.Cycles))
		vals = append(vals, v)
		t.AddRow(b, v)
	}
	t.AddRow("Average", stats.Mean(vals))
	return t, nil
}

// AblationDense compares sparse and dense 2P2L fill.
func (s *Suite) AblationDense() (*stats.Table, error) {
	t := stats.NewTable("Ablation: dense vs sparse 2P2L fill (normalized to 1P1L)",
		"bench", "2P2L sparse", "2P2L dense", "dense mem bytes / sparse")
	for _, b := range ablationBenches(s.Benches) {
		base, err := s.run(s.baseSpec(b, core.D0Baseline, 1*core.MB))
		if err != nil {
			return nil, err
		}
		sp, err := s.run(s.baseSpec(b, core.D2Sparse, 1*core.MB))
		if err != nil {
			return nil, err
		}
		dn, err := s.run(s.baseSpec(b, core.D2Dense, 1*core.MB))
		if err != nil {
			return nil, err
		}
		t.AddRow(b,
			ratio(float64(sp.Cycles), float64(base.Cycles)),
			ratio(float64(dn.Cycles), float64(base.Cycles)),
			ratio(float64(dn.Mem.TotalBytes()), float64(sp.Mem.TotalBytes())))
	}
	return t, nil
}

// AblationDesign3 evaluates the paper's future-work Design 3 (2P2L caches
// at every level).
func (s *Suite) AblationDesign3() (*stats.Table, error) {
	t := stats.NewTable("Extension: Design 3 (2P2L L1+LLC) normalized to 1P1L",
		"bench", "2P2L_L1")
	var vals []float64
	for _, b := range s.Benches {
		base, err := s.run(s.baseSpec(b, core.D0Baseline, 1*core.MB))
		if err != nil {
			return nil, err
		}
		r, err := s.run(s.baseSpec(b, core.D3AllTile, 1*core.MB))
		if err != nil {
			return nil, err
		}
		v := ratio(float64(r.Cycles), float64(base.Cycles))
		vals = append(vals, v)
		t.AddRow(b, v)
	}
	t.AddRow("Average", stats.Mean(vals))
	return t, nil
}

// AblationTiling evaluates the paper's §X future-work proposal:
// hardware-software collaborative tiling, blocking the loop nests at the
// 2P2L cache's 2-D block granularity (8) and at a larger multiple (32).
func (s *Suite) AblationTiling() (*stats.Table, error) {
	t := stats.NewTable("Extension: iteration-space tiling on 2P2L (normalized to untiled 2P2L)",
		"bench", "untiled", "tile=8", "tile=32")
	for _, b := range []string{"sgemm", "ssyr2k", "strmm"} {
		un, err := s.run(s.baseSpec(b, core.D2Sparse, 1*core.MB))
		if err != nil {
			return nil, err
		}
		row := []interface{}{b, 1.0}
		for _, ts := range []int{8, 32} {
			spec := s.baseSpec(b, core.D2Sparse, 1*core.MB)
			spec.TileSize = ts
			r, err := s.run(spec)
			if err != nil {
				return nil, err
			}
			row = append(row, ratio(float64(r.Cycles), float64(un.Cycles)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationLoopOrder quantifies the §I claim that MDA caching obviates the
// compiler's ambiguous loop-ordering tradeoff: sgemm is run with its k-loop
// innermost (vectorizes A rows + B columns on a 2-D target; nothing on 1-D)
// and with the j-loop innermost (the 1-D-friendly order). Each design's two
// orders are normalized to its better one — a large worst/best ratio means
// the design is order-sensitive.
func (s *Suite) AblationLoopOrder() (*stats.Table, error) {
	t := stats.NewTable("Extension: loop-order sensitivity of sgemm (worst order / best order per design)",
		"design", "k-innermost", "j-innermost", "worst/best")
	orders := [][]string{{"i", "j", "k"}, {"i", "k", "j"}}
	for _, d := range []core.Design{core.D0Baseline, core.D1DiffSet, core.D2Sparse} {
		var cycles []float64
		for _, order := range orders {
			kern := workloads.Sgemm(s.BigN())
			nest, err := compiler.Interchange(kern.Nests[0], order)
			if err != nil {
				return nil, err
			}
			kern.Nests[0] = nest
			spec := s.baseSpec("sgemm", d, 1*core.MB)
			spec.Scale = s.Scale
			s.logf("running sgemm order=%v on %v ...", order, d)
			r, err := RunKernel(kern, spec)
			if err != nil {
				return nil, err
			}
			cycles = append(cycles, float64(r.Cycles))
		}
		best, worst := cycles[0], cycles[1]
		if worst < best {
			best, worst = worst, best
		}
		t.AddRow(d, cycles[0]/best, cycles[1]/best, worst/best)
	}
	return t, nil
}

// AblationSubBuffers verifies the §IX-B finding: the paper implemented a
// Gulur-style multiple sub-row-buffer scheme and found "less than 1%
// impact" for these single-threaded workloads.
func (s *Suite) AblationSubBuffers() (*stats.Table, error) {
	t := stats.NewTable("Ablation: multiple sub-row/column buffers per bank (1P2L, normalized to 1 buffer)",
		"bench", "1 buffer", "4 buffers", "delta%")
	var deltas []float64
	for _, b := range ablationBenches(s.Benches) {
		one, err := s.run(s.baseSpec(b, core.D1DiffSet, 1*core.MB))
		if err != nil {
			return nil, err
		}
		spec := s.baseSpec(b, core.D1DiffSet, 1*core.MB)
		spec.SubBuffers = 4
		four, err := s.run(spec)
		if err != nil {
			return nil, err
		}
		d := 100 * (ratio(float64(four.Cycles), float64(one.Cycles)) - 1)
		deltas = append(deltas, d)
		t.AddRow(b, 1.0, ratio(float64(four.Cycles), float64(one.Cycles)), d)
	}
	t.AddRow("Average", "", "", stats.Mean(deltas))
	return t, nil
}

// AblationRepl compares replacement policies on the 1P2L hierarchy: the
// suite's streaming kernels are exactly where LRU, random and
// scan-resistant SRRIP diverge.
func (s *Suite) AblationRepl() (*stats.Table, error) {
	t := stats.NewTable("Ablation: replacement policy on 1P2L (normalized to LRU)",
		"bench", "lru", "random", "srrip")
	for _, b := range ablationBenches(s.Benches) {
		spec := s.baseSpec(b, core.D1DiffSet, 1*core.MB)
		base, err := s.run(spec)
		if err != nil {
			return nil, err
		}
		row := []interface{}{b, 1.0}
		for _, repl := range []core.ReplPolicy{core.ReplRandom, core.ReplSRRIP} {
			rs := spec
			rs.Repl = repl
			r, err := s.run(rs)
			if err != nil {
				return nil, err
			}
			row = append(row, ratio(float64(r.Cycles), float64(base.Cycles)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationMapping tests §IV-C's observation that Same-Set mapping "maps all
// rows and columns in a 2-D block into the same set, making it impractical
// for lower associativity caches": both 1P2L mappings are run with the
// standard associativity and with 2-way caches, normalized to the
// same-associativity Different-Set configuration.
func (s *Suite) AblationMapping() (*stats.Table, error) {
	t := stats.NewTable("Ablation: Same-Set vs Different-Set mapping under low associativity (sgemm)",
		"assoc", "DifferentSet cycles", "SameSet / DifferentSet")
	for _, assoc := range []int{0, 2} { // 0 = the design default (4/8/8-way)
		var cycles [2]float64
		for mi, d := range []core.Design{core.D1DiffSet, core.D1SameSet} {
			spec := s.baseSpec("sgemm", d, 1*core.MB)
			spec.Scale = s.Scale
			cfg, err := spec.Config()
			if err != nil {
				return nil, err
			}
			label := "default"
			if assoc > 0 {
				label = fmt.Sprintf("%d-way", assoc)
				forceAssoc(&cfg.L1, assoc)
				forceAssoc(&cfg.L2, assoc)
				forceAssoc(&cfg.L3, assoc)
			}
			s.logf("running mapping ablation %v assoc=%s ...", d, label)
			prog, err := compiler.Compile(workloads.Sgemm(s.BigN()), compiler.Target{Logical2D: true})
			if err != nil {
				return nil, err
			}
			m, err := core.Build(cfg)
			if err != nil {
				return nil, err
			}
			r, err := m.Run(prog.Trace())
			if err != nil {
				return nil, err
			}
			cycles[mi] = float64(r.Cycles)
		}
		label := "default"
		if assoc > 0 {
			label = fmt.Sprintf("%d-way", assoc)
		}
		t.AddRow(label, cycles[0], ratio(cycles[1], cycles[0]))
	}
	return t, nil
}

// forceAssoc rewrites a level to the given associativity, keeping capacity.
func forceAssoc(p *core.CacheParams, assoc int) {
	if p.SizeBytes == 0 {
		return
	}
	p.Assoc = assoc
	p.SizeBytes -= p.SizeBytes % (assoc * isa.TileSize) // tile-safe for any level
	if p.SizeBytes == 0 {
		p.SizeBytes = assoc * isa.TileSize
	}
}

// AblationTech evaluates the §II claim that the approach carries over to
// other crosspoint technologies: sgemm per technology (STT, ReRAM, PCM),
// each MDA design normalized to the same-technology baseline, plus the
// memory-energy ratio.
func (s *Suite) AblationTech() (*stats.Table, error) {
	t := stats.NewTable("Extension: crosspoint technology sensitivity (sgemm; normalized per technology)",
		"tech", "1P2L cycles", "2P2L cycles", "1P2L memory energy")
	for _, tech := range []string{"stt", "reram", "pcm"} {
		specTech := tech
		if tech == "stt" {
			specTech = "" // identical to the default: reuse cached runs
		}
		base := s.baseSpec("sgemm", core.D0Baseline, 1*core.MB)
		base.Tech = specTech
		rb, err := s.run(base)
		if err != nil {
			return nil, err
		}
		row := []interface{}{tech}
		var d1 *core.Results
		for _, d := range []core.Design{core.D1DiffSet, core.D2Sparse} {
			spec := s.baseSpec("sgemm", d, 1*core.MB)
			spec.Tech = specTech
			r, err := s.run(spec)
			if err != nil {
				return nil, err
			}
			if d == core.D1DiffSet {
				d1 = r
			}
			row = append(row, ratio(float64(r.Cycles), float64(rb.Cycles)))
		}
		row = append(row, ratio(d1.Mem.Energy.TotalPJ(), rb.Mem.Energy.TotalPJ()))
		t.AddRow(row...)
	}
	return t, nil
}

// ablationBenches picks the ablation subset: one row/column-balanced BLAS
// kernel, the column-extreme kernel and the two HTAP mixes, intersected
// with the suite's configured benchmarks.
func ablationBenches(configured []string) []string {
	want := map[string]bool{"sgemm": true, "sobel": true, "htap1": true, "htap2": true}
	var out []string
	for _, b := range configured {
		if want[b] {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = configured
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
