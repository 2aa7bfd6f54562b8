package core

import (
	"fmt"
	"strings"

	"mdacache/internal/isa"
	"mdacache/internal/mem"
	"mdacache/internal/obs"
)

// Design selects one of the cache-hierarchy design points of §IV-C.
type Design int

const (
	// D0Baseline is Design 0: 1P1L L1/L2/LLC with a stride prefetcher,
	// fronting the MDA memory in row-only mode (1-D-optimised layout).
	D0Baseline Design = iota
	// D1DiffSet is Design 1 with Different-Set index mapping ("1P2L").
	D1DiffSet
	// D1SameSet is Design 1 with Same-Set index mapping ("1P2L_SameSet").
	D1SameSet
	// D2Sparse is Design 2: 1P2L upper levels with a sparse-fill 2P2L LLC.
	D2Sparse
	// D2Dense is the dense-fill 2P2L LLC variant the paper elides
	// (implemented here as an ablation: full 8-line tile fill on miss).
	D2Dense
	// D3AllTile is Design 3 (the paper's future work): 2P2L at every level.
	D3AllTile
)

var designNames = map[Design]string{
	D0Baseline: "1P1L",
	D1DiffSet:  "1P2L",
	D1SameSet:  "1P2L_SameSet",
	D2Sparse:   "2P2L",
	D2Dense:    "2P2L_Dense",
	D3AllTile:  "2P2L_L1",
}

func (d Design) String() string {
	if n, ok := designNames[d]; ok {
		return n
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// ParseDesign maps a design name — case-insensitive, as printed by
// Design.String — to its value. It is the inverse every user-facing surface
// (CLI flags, service APIs) shares, so "1P2L" means the same design
// everywhere.
func ParseDesign(name string) (Design, bool) {
	for d, n := range designNames {
		if strings.EqualFold(n, name) {
			return d, true
		}
	}
	return 0, false
}

// DesignNames lists the canonical design names in definition order, for
// usage messages and validation errors.
func DesignNames() []string {
	names := make([]string, 0, len(designNames))
	for d := D0Baseline; int(d) < len(designNames); d++ {
		names = append(names, designNames[d])
	}
	return names
}

// Logical2D reports whether the design's upper (SRAM) levels are logically
// 2-D, i.e. whether column-annotated code should be compiled for it.
func (d Design) Logical2D() bool { return d != D0Baseline }

// SetMapping selects how a 1P2L cache maps row and column lines to sets
// (§IV-C, Design 1).
type SetMapping int

const (
	// DifferentSet maps the rows and columns of a 2-D block into different
	// sets (tag kept identical), spreading a tile's 16 lines.
	DifferentSet SetMapping = iota
	// SameSet maps all rows and columns of a 2-D block into the same set.
	SameSet
)

func (m SetMapping) String() string {
	if m == SameSet {
		return "same-set"
	}
	return "different-set"
}

// CacheParams sizes and times one cache level.
type CacheParams struct {
	Name      string
	SizeBytes int
	Assoc     int

	TagLat     uint64
	DataLat    uint64
	Sequential bool // sequential tag→data (L2/L3) vs parallel (L1)

	MSHRs          int
	Mapping        SetMapping
	Repl           ReplPolicy // replacement policy (LRU default)
	WriteAsymmetry uint64     // extra array-write occupancy (2P2L STT, Fig. 16)

	// PrefetchDegree enables the stride prefetcher with the given degree
	// (baseline 1P1L L1 only; 0 disables).
	PrefetchDegree int

	// PredictOrient enables dynamic orientation-preference prediction for
	// scalar accesses on 1P2L caches (§IV-C): a per-PC stride predictor
	// overrides the static preference bit once confident. Off by default —
	// the paper evaluates static mappings only.
	PredictOrient bool
}

// HitLatency returns the load-to-use latency of a hit.
func (p CacheParams) HitLatency() uint64 {
	if p.Sequential {
		return p.TagLat + p.DataLat
	}
	if p.TagLat > p.DataLat {
		return p.TagLat
	}
	return p.DataLat
}

// Validate reports a descriptive error for malformed parameters.
func (p CacheParams) Validate(lineBytes int) error {
	switch {
	case p.SizeBytes <= 0 || p.SizeBytes%(lineBytes*p.Assoc) != 0:
		return fmt.Errorf("core: %s size %d not divisible into %d-byte ways ×%d", p.Name, p.SizeBytes, lineBytes, p.Assoc)
	case p.Assoc <= 0:
		return fmt.Errorf("core: %s associativity must be positive", p.Name)
	case p.MSHRs <= 0:
		return fmt.Errorf("core: %s needs at least one MSHR", p.Name)
	}
	return nil
}

// Config describes a complete machine: design point, cache levels, memory
// and core parameters.
type Config struct {
	Design Design

	L1 CacheParams
	L2 CacheParams
	// L3 is optional: a zero SizeBytes builds a two-level hierarchy with L2
	// as the LLC (the paper's cache-resident study, Fig. 13).
	L3 CacheParams

	Mem mem.Params

	// Window is the processor's out-of-order window: the maximum number of
	// in-flight memory operations.
	Window int

	// Cores is the number of trace-driven CPUs sharing the hierarchy; 0
	// means 1. Every machine builds one private L1 per core over the shared
	// L2/LLC, kept coherent by a snoop hub (DESIGN §11). A single core keeps
	// the names "cpu"/"L1" and one global port per shared level; N > 1
	// names the L1s "L1c<i>" and arbitrates every shared level per set.
	Cores int

	// OccupancySampleInterval, when non-zero, records row/column line
	// occupancy of every level each interval cycles (Fig. 15).
	OccupancySampleInterval uint64

	// MaxCycles, when non-zero, bounds the simulated cycle count: a run
	// still pending past the budget aborts with sim.ErrCycleLimit and stall
	// diagnostics instead of spinning forever. The watchdog's cycle budget.
	MaxCycles uint64

	// Tracer, when non-nil, receives per-component simulation events (cache
	// hits/misses/fills, MSHR traffic, bank activity, fault retries). The
	// metrics registry is always built; only event tracing is optional. Set
	// programmatically (mdasim -trace-out): never part of a RunSpec, so
	// sweep checkpoint keys are unaffected.
	Tracer *obs.Tracer `json:"-"`
}

// KB is a convenience for cache sizes.
const KB = 1024

// MB is a convenience for cache sizes.
const MB = 1024 * KB

// DefaultConfig returns the paper's Table I system at full scale: 32 KB L1,
// 256 KB L2, llcBytes L3 (1–4 MB in the paper), MDA STT main memory, for the
// given design point.
func DefaultConfig(d Design, llcBytes int) Config {
	cfg := Config{
		Design: d,
		L1: CacheParams{
			Name: "L1", SizeBytes: 32 * KB, Assoc: 4,
			TagLat: 2, DataLat: 2, Sequential: false, MSHRs: 64,
		},
		L2: CacheParams{
			Name: "L2", SizeBytes: 256 * KB, Assoc: 8,
			TagLat: 6, DataLat: 9, Sequential: true, MSHRs: 64,
		},
		L3: CacheParams{
			Name: "L3", SizeBytes: llcBytes, Assoc: 8,
			TagLat: 8, DataLat: 12, Sequential: true, MSHRs: 128,
		},
		Mem:    mem.DefaultParams(),
		Window: 128,
	}
	cfg.applyDesign()
	return cfg
}

// SmallConfig returns a deliberately small three-level hierarchy for
// randomized functional verification: caches tiny enough that short traces
// force heavy eviction, duplication and writeback traffic, over a reduced
// MDA memory (2 channels × 4 banks). variant selects a geometry preset:
//
//	0 — 1/4/8 KB, 2/4/4-way, roomy MSHRs (the oracle-test shape)
//	1 — 1/2/4 KB, 2-way everywhere, 2–4 MSHRs and an 8-op window, so MSHR
//	    stalls, coalescing and ordering holds fire constantly
//
// Exported for the internal/check conformance harness (and mdacheck), which
// needs design-correct wiring (mappings, prefetcher, row-only memory)
// without re-deriving applyDesign.
func SmallConfig(d Design, variant int) Config {
	cfg := Config{
		Design: d,
		L1: CacheParams{
			Name: "L1", SizeBytes: 1 * KB, Assoc: 2,
			TagLat: 2, DataLat: 2, MSHRs: 4,
		},
		L2: CacheParams{
			Name: "L2", SizeBytes: 4 * KB, Assoc: 4,
			TagLat: 6, DataLat: 9, Sequential: true, MSHRs: 8,
		},
		L3: CacheParams{
			Name: "L3", SizeBytes: 8 * KB, Assoc: 4,
			TagLat: 8, DataLat: 12, Sequential: true, MSHRs: 8,
		},
		Window: 16,
	}
	if variant == 1 {
		cfg.L2 = CacheParams{
			Name: "L2", SizeBytes: 2 * KB, Assoc: 2,
			TagLat: 6, DataLat: 9, Sequential: true, MSHRs: 4,
		}
		cfg.L3 = CacheParams{
			Name: "L3", SizeBytes: 4 * KB, Assoc: 2,
			TagLat: 8, DataLat: 12, Sequential: true, MSHRs: 4,
		}
		cfg.L1.MSHRs = 2
		cfg.Window = 8
	}
	cfg.Mem = mem.DefaultParams()
	cfg.Mem.Channels = 2
	cfg.Mem.Banks = 4
	cfg.Mem.TileColsPerBank = 16
	if d == D3AllTile {
		// Tile-granular levels need ≥ assoc × 512 B and divisibility.
		cfg.L1.SizeBytes = 2 * KB
	}
	cfg.applyDesign()
	return cfg
}

// TwoLevelConfig returns the cache-resident configuration of Fig. 13: L1
// plus a single LLC ("2MB L2" in the paper) and no L3.
func TwoLevelConfig(d Design, llcBytes int) Config {
	cfg := DefaultConfig(d, 0)
	cfg.L2 = CacheParams{
		Name: "L2", SizeBytes: llcBytes, Assoc: 8,
		TagLat: 6, DataLat: 9, Sequential: true, MSHRs: 64,
	}
	cfg.L3 = CacheParams{}
	cfg.applyDesign()
	return cfg
}

// Scale shrinks the machine to match a 1/k scaling of the benchmark matrix
// dimension, preserving the two ratios the behaviour depends on:
//
//   - L2/LLC capacities divide by k², tracking the O(N²) matrix working
//     sets (the working-set/capacity ratio the paper's §VIII studies);
//   - the L1 divides by k only, tracking the O(N) *inner-loop* footprint
//     (one row of A plus one column's worth of lines in sgemm) that
//     determines L1 reuse. Dividing the L1 by k² would make every
//     inner-loop stream thrash a cache the paper's L1 comfortably holds.
//
// Associativity, latencies and memory parameters are unchanged.
func (c Config) Scale(k int) Config {
	g1, g2, g3 := c.levelGranularity()
	div := func(p *CacheParams, gran, factor int) {
		if p.SizeBytes == 0 {
			return
		}
		p.SizeBytes /= factor
		if min := p.Assoc * gran; p.SizeBytes < min {
			p.SizeBytes = min
		}
		// Keep the capacity a whole number of ways.
		p.SizeBytes -= p.SizeBytes % (p.Assoc * gran)
	}
	div(&c.L1, g1, k)
	div(&c.L2, g2, k*k)
	div(&c.L3, g3, k*k)
	// A scaled L2 must still be strictly larger than the L1.
	if c.L2.SizeBytes <= c.L1.SizeBytes {
		c.L2.SizeBytes = 2 * c.L1.SizeBytes
	}
	return c
}

// applyDesign stamps design-specific knobs onto the levels: the baseline's
// prefetcher, the 1P2L mapping choice, and the memory's row-only mode.
func (c *Config) applyDesign() {
	c.L1.PrefetchDegree = 0
	c.L1.Mapping, c.L2.Mapping, c.L3.Mapping = DifferentSet, DifferentSet, DifferentSet
	switch c.Design {
	case D0Baseline:
		c.L1.PrefetchDegree = 4
		c.Mem.RowOnly = true
	case D1SameSet:
		c.L1.Mapping, c.L2.Mapping, c.L3.Mapping = SameSet, SameSet, SameSet
		c.Mem.RowOnly = false
	default:
		c.Mem.RowOnly = false
	}
}

// LLC returns the parameters of the last-level cache.
func (c *Config) LLC() *CacheParams {
	if c.L3.SizeBytes > 0 {
		return &c.L3
	}
	return &c.L2
}

// levelGranularity returns the allocation unit of each level for the design:
// 64-byte lines for 1P levels, 512-byte tiles for 2P levels.
func (c *Config) levelGranularity() (l1, l2, l3 int) {
	l1, l2, l3 = isa.LineSize, isa.LineSize, isa.LineSize
	tileLLC := c.Design == D2Sparse || c.Design == D2Dense || c.Design == D3AllTile
	if tileLLC {
		if c.L3.SizeBytes > 0 {
			l3 = isa.TileSize
		} else {
			l2 = isa.TileSize
		}
	}
	if c.Design == D3AllTile {
		l1, l2, l3 = isa.TileSize, isa.TileSize, isa.TileSize
	}
	return l1, l2, l3
}

// Validate checks the whole configuration.
func (c *Config) Validate() error {
	g1, g2, g3 := c.levelGranularity()
	if err := c.L1.Validate(g1); err != nil {
		return err
	}
	if err := c.L2.Validate(g2); err != nil {
		return err
	}
	if c.L3.SizeBytes > 0 {
		if err := c.L3.Validate(g3); err != nil {
			return err
		}
	}
	if c.Window <= 0 {
		return fmt.Errorf("core: Window must be positive")
	}
	if c.Cores < 0 {
		return fmt.Errorf("core: Cores must be non-negative (0 or 1 = single-core)")
	}
	return c.Mem.Validate()
}
