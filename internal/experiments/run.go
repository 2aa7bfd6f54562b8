// Package experiments reproduces the paper's evaluation: one function per
// figure (Figs. 10–17) plus the layout ablation, each returning a typed
// table of paper-comparable numbers. The DESIGN.md experiment index maps
// each figure to these entry points.
package experiments

import (
	"context"
	"fmt"
	"time"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
	"mdacache/internal/mem"
	"mdacache/internal/workloads"
)

// RunSpec describes one simulation: benchmark × design × configuration.
type RunSpec struct {
	Bench  string
	N      int // matrix dimension (htap table width derives from it)
	Design core.Design

	// Cores selects how many trace-driven CPUs share the hierarchy (private
	// L1s over a coherent shared L2/LLC). 0 and 1 both build the one-core
	// machine; above 1 the compiled trace is sharded round-robin in 64-op
	// chunks across the cores (ShardTrace) — a throughput approximation
	// that keeps each core's chunk order but not cross-core program order
	// (the hierarchy stays functionally coherent regardless). Core c gets
	// exactly chunks c, c+Cores, c+2·Cores, … and is never held back by
	// another core's share, so the run equals one fed the trace pre-split
	// by chunk index.
	Cores int

	// LLCBytes sizes the L3 (or, with TwoLevel, the L2 that acts as LLC).
	LLCBytes int
	// TwoLevel drops the L3, making L2 the LLC (Fig. 13's cache-resident
	// configuration).
	TwoLevel bool

	// Scale divides cache capacities by Scale² — pair it with N divided by
	// Scale to preserve the paper's working-set/capacity ratios. 1 = paper
	// scale. LLCBytes is given at paper scale and scaled internally.
	Scale int

	FastMem   bool   // Fig. 17: 1.6× faster main memory
	SlowWrite uint64 // Fig. 16: extra 2P2L array-write cycles

	// LayoutOverride forces a memory layout regardless of the design's
	// logical dimensionality (the §IV-C Design-0 layout-mismatch ablation).
	LayoutOverride compiler.Layout

	// TileSize, when non-zero, applies iteration-space tiling with the
	// given block size to every tileable loop of the kernel — the §X
	// hardware-software collaborative tiling extension.
	TileSize int

	// PredictOrient enables the §IV-C dynamic orientation predictor in the
	// L1 (1P2L designs).
	PredictOrient bool

	// Tech selects the main-memory crosspoint technology preset: "stt"
	// (default), "reram" or "pcm" (§II: the approach extends to any
	// crosspoint technology).
	Tech string

	// Repl selects the cache replacement policy at every level (the paper
	// uses LRU; Random and SRRIP are ablations).
	Repl core.ReplPolicy

	// SubBuffers overrides the number of open-line sub-buffers per bank per
	// orientation (the §IX-B Gulur-style multiple sub-row buffers; 0 keeps
	// the default single buffer).
	SubBuffers int

	// OccupancyInterval samples Fig. 15 occupancy every N cycles (0 = off).
	OccupancyInterval uint64

	// MaxCycles aborts the run with sim.ErrCycleLimit once the simulated
	// clock passes this budget (0 = unlimited).
	MaxCycles uint64

	// Timeout bounds the wall-clock time of the run; expiry aborts it with
	// sim.ErrTimeout (0 = unlimited).
	Timeout time.Duration

	// WriteFailProb and FaultSeed configure NVM write-fault injection in
	// main memory (see mem.Params). 0 probability keeps the fault path
	// entirely disabled.
	WriteFailProb float64
	FaultSeed     uint64

	// Workload selects a request-driven streaming workload instead of a
	// compiled kernel: "" (default) compiles and runs Bench; "kv" or "htap"
	// generate seeded per-core client request streams over the htapTable(N)
	// layout (see workloads.RequestStreams) — O(1) memory in Ops, each
	// simulated client pinned to one core, no trace sharding involved.
	Workload string

	// Ops is the total request count across all cores (request workloads
	// only; must be >= 1 when Workload is set).
	Ops int64

	// Zipf is the key-popularity skew exponent theta in [0, 1); 0 = uniform.
	Zipf float64

	// ReadRatio is the fraction of point requests that are reads, in [0, 1].
	ReadRatio float64

	// Clients is the total number of simulated clients (0 = one per core).
	Clients int

	// WorkloadSeed seeds request generation; a fixed seed reproduces
	// bit-identical streams.
	WorkloadSeed uint64
}

func (s RunSpec) String() string {
	switch {
	case s.Workload != "":
		cores := s.Cores
		if cores < 1 {
			cores = 1
		}
		return fmt.Sprintf("%s/N=%d/%v/LLC=%dKB/cores=%d/ops=%d/zipf=%g/rr=%g/clients=%d",
			s.Workload, s.N, s.Design, s.LLCBytes/1024, cores, s.Ops, s.Zipf, s.ReadRatio, s.Clients)
	case s.Cores > 1:
		return fmt.Sprintf("%s/N=%d/%v/LLC=%dKB/cores=%d", s.Bench, s.N, s.Design, s.LLCBytes/1024, s.Cores)
	default:
		return fmt.Sprintf("%s/N=%d/%v/LLC=%dKB", s.Bench, s.N, s.Design, s.LLCBytes/1024)
	}
}

// Config materialises the machine configuration for the spec.
func (s RunSpec) Config() (core.Config, error) {
	if s.LLCBytes <= 0 {
		return core.Config{}, fmt.Errorf("experiments: LLCBytes must be positive")
	}
	if s.Scale <= 0 {
		s.Scale = 1
	}
	var cfg core.Config
	if s.TwoLevel {
		cfg = core.TwoLevelConfig(s.Design, s.LLCBytes)
	} else {
		cfg = core.DefaultConfig(s.Design, s.LLCBytes)
	}
	cfg = cfg.Scale(s.Scale)
	if s.Tech != "" {
		tech, ok := mem.TechParams(s.Tech)
		if !ok {
			return core.Config{}, fmt.Errorf("experiments: unknown memory technology %q", s.Tech)
		}
		rowOnly := cfg.Mem.RowOnly
		cfg.Mem = tech
		cfg.Mem.RowOnly = rowOnly
	}
	if s.FastMem {
		rowOnly := cfg.Mem.RowOnly
		cfg.Mem = mem.FastParams()
		cfg.Mem.RowOnly = rowOnly
	}
	if s.SlowWrite > 0 {
		cfg.LLC().WriteAsymmetry = s.SlowWrite
	}
	cfg.L1.PredictOrient = s.PredictOrient
	cfg.L1.Repl, cfg.L2.Repl, cfg.L3.Repl = s.Repl, s.Repl, s.Repl
	if s.SubBuffers > 0 {
		cfg.Mem.BuffersPerBank = s.SubBuffers
	}
	cfg.Mem.WriteFailProb = s.WriteFailProb
	cfg.Mem.FaultSeed = s.FaultSeed
	cfg.OccupancySampleInterval = s.OccupancyInterval
	cfg.MaxCycles = s.MaxCycles
	cfg.Cores = s.Cores
	return cfg, cfg.Validate()
}

// layoutTiled re-exports the tiled layout for figure code.
const layoutTiled = compiler.LayoutTiled

// measureMix compiles a benchmark for the logically-2-D target and tallies
// its Fig. 10 access-type distribution (no simulation needed — the mix is a
// property of the compiled trace).
func measureMix(bench string, n int) (compiler.Mix, error) {
	kern, err := workloads.Build(bench, n)
	if err != nil {
		return compiler.Mix{}, err
	}
	prog, err := compiler.Compile(kern, compiler.Target{Logical2D: true})
	if err != nil {
		return compiler.Mix{}, err
	}
	return prog.MeasureMix(), nil
}

// Run executes the spec and returns the machine results: RunWith under a
// background context with no observability hooks.
func Run(spec RunSpec) (*core.Results, error) {
	return RunWith(context.Background(), spec, Instrument{})
}
