package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// mcConfig is tinyConfig with N cores: private L1s over a shared, snooped
// L2/L3 with per-set arbitration.
func mcConfig(d Design, cores int) Config {
	cfg := tinyConfig(d)
	cfg.Cores = cores
	return cfg
}

// shiftOps relocates a trace by whole tiles so per-core traces can occupy
// disjoint footprints while reusing the single-core oracle machinery.
func shiftOps(ops []isa.Op, tiles uint64) []isa.Op {
	out := make([]isa.Op, len(ops))
	for i, op := range ops {
		op.Addr += tiles * isa.TileSize
		out[i] = op
	}
	return out
}

// TestMultiCoreOracleDisjoint runs every design with 2 and 4 cores over
// per-core random traces with disjoint footprints: each core's loads must
// see its own oracle values, and the drained memory image must match the
// union of the per-core final states.
func TestMultiCoreOracleDisjoint(t *testing.T) {
	designs := []Design{D0Baseline, D1DiffSet, D1SameSet, D2Sparse, D2Dense, D3AllTile}
	for _, d := range designs {
		for _, cores := range []int{2, 4} {
			d, cores := d, cores
			t.Run(fmt.Sprintf("%s/cores%d", d, cores), func(t *testing.T) {
				t.Parallel()
				m, err := Build(mcConfig(d, cores))
				if err != nil {
					t.Fatal(err)
				}
				traces := make([]isa.TraceReader, cores)
				perCore := make([][]isa.Op, cores)
				total := 0
				for c := 0; c < cores; c++ {
					ops := shiftOps(randomTrace(uint64(100+c), 1500, 12, d == D0Baseline), uint64(c)*64)
					perCore[c] = ops
					traces[c] = isa.NewSliceTrace(ops)
					total += len(ops)
					cpu := m.CPUs[c]
					var loadErrs int
					cpu.OnLoad = func(op isa.Op, value uint64) {
						if value != op.Value && loadErrs < 5 {
							t.Errorf("core %d: load %v returned %d, want %d", cpu.coreID, op, value, op.Value)
							loadErrs++
						}
					}
				}
				res, err := m.RunTraces(traces...)
				if err != nil {
					t.Fatal(err)
				}
				if res.Ops != uint64(total) {
					t.Fatalf("res.Ops = %d, want %d", res.Ops, total)
				}
				m.DrainAll()
				store := m.Memory.Store()
				for c := 0; c < cores; c++ {
					for addr, want := range oracleWords(perCore[c]) {
						if got := store.ReadWord(addr); got != want {
							t.Fatalf("core %d: memory[%#x] = %d after drain, want %d", c, addr, got, want)
						}
					}
				}
			})
		}
	}
}

// TestMultiCoreSameLineSingleFill: two cores miss the same line in the same
// cycle. The shared level must issue exactly one fill (the second request
// coalesces into the first's MSHR entry) and wake both waiters with the
// correct data.
func TestMultiCoreSameLineSingleFill(t *testing.T) {
	for _, d := range []Design{D0Baseline, D1DiffSet, D1SameSet, D2Sparse, D2Dense, D3AllTile} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			cfg := mcConfig(d, 2)
			cfg.L1.PrefetchDegree = 0 // keep the shared level's fill count exact
			m, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			line := isa.LineOf(0, isa.Row)
			var data [isa.WordsPerLine]uint64
			for i := range data {
				data[i] = 500 + uint64(i)
			}
			m.Memory.Store().WriteLine(line, 0xff, data)

			op := isa.Op{Addr: line.Base, Orient: isa.Row, Vector: true, Value: 500}
			loads := 0
			for _, cpu := range m.CPUs {
				cpu := cpu
				cpu.OnLoad = func(op isa.Op, value uint64) {
					loads++
					if value != 500 {
						t.Errorf("core %d: load returned %d, want 500", cpu.coreID, value)
					}
				}
			}
			res, err := m.RunTraces(
				isa.NewSliceTrace([]isa.Op{op}),
				isa.NewSliceTrace([]isa.Op{op}),
			)
			if err != nil {
				t.Fatal(err)
			}
			if loads != 2 {
				t.Fatalf("woke %d waiters, want 2", loads)
			}
			fills, _ := res.Metrics.Counter("l2.fills_issued")
			coalesced, _ := res.Metrics.Counter("l2.mshr_coalesced")
			if fills != 1 {
				t.Errorf("shared level issued %d fills, want 1", fills)
			}
			if coalesced != 1 {
				t.Errorf("shared level coalesced %d requests, want 1", coalesced)
			}
		})
	}
}

// TestMultiCoreSnoopRace drives the duplicate-invalidation-racing-a-fill
// edge: core 0 dirties a row word, core 1's column fill must observe it via
// the snoop flush, core 1's subsequent store must invalidate core 0's copy,
// and core 0's re-read must see the new value.
func TestMultiCoreSnoopRace(t *testing.T) {
	for _, d := range []Design{D1DiffSet, D1SameSet, D2Sparse, D3AllTile} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			m, err := Build(mcConfig(d, 2))
			if err != nil {
				t.Fatal(err)
			}
			w0 := uint64(0) // word (0,0) of tile 0
			colLine := isa.LineOf(w0, isa.Col)
			// The machine-wide overlap-ordering rule admits conflicting ops
			// in pump order, and core 0 re-pumps first: its re-load is
			// ordered before core 1's store and must still see 111 — while
			// the drained image proves the store landed after it.
			trace0 := []isa.Op{
				{Addr: w0, Kind: isa.Store, Orient: isa.Row, Value: 111},
				{Addr: w0, Kind: isa.Load, Orient: isa.Row, Value: 111, Gap: 900},
			}
			trace1 := []isa.Op{
				{Addr: colLine.Base, Kind: isa.Load, Orient: isa.Col, Vector: true, Value: 111, Gap: 300},
				{Addr: w0, Kind: isa.Store, Orient: isa.Col, Value: 222, Gap: 300},
			}
			for _, cpu := range m.CPUs {
				cpu := cpu
				cpu.OnLoad = func(op isa.Op, value uint64) {
					if value != op.Value {
						t.Errorf("core %d: load@%#x returned %d, want %d", cpu.coreID, op.Addr, value, op.Value)
					}
				}
			}
			res, err := m.RunTraces(isa.NewSliceTrace(trace0), isa.NewSliceTrace(trace1))
			if err != nil {
				t.Fatal(err)
			}
			flushes, _ := res.Metrics.Counter("coherence.snoop_flushes")
			invals, _ := res.Metrics.Counter("coherence.snoop_invalidates")
			if flushes == 0 {
				t.Error("remote read of a dirty line triggered no snoop flush")
			}
			if invals == 0 {
				t.Error("remote write to a cached line triggered no snoop invalidation")
			}
			m.DrainAll()
			if got := m.Memory.Store().ReadWord(w0); got != 222 {
				t.Errorf("memory[%#x] = %d after drain, want 222", w0, got)
			}
		})
	}
}

// TestMultiCoreSetSaturation hammers a single shared-level set from every
// core: the per-set arbiter must record contention, every core must make
// full progress (FIFO arbitration cannot starve anyone), and the drained
// image must reflect every store despite line-granular false sharing.
func TestMultiCoreSetSaturation(t *testing.T) {
	for _, d := range []Design{D1DiffSet, D1SameSet, D2Sparse} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			const cores, perCore = 4, 48
			m, err := Build(mcConfig(d, cores))
			if err != nil {
				t.Fatal(err)
			}
			traces := make([]isa.TraceReader, cores)
			want := make(map[uint64]uint64)
			for c := 0; c < cores; c++ {
				ops := make([]isa.Op, perCore)
				for j := range ops {
					// Tile numbers striding 16 collide in every design's
					// shared-set mapping; word (0,c) keeps cores on distinct
					// words of the same row line (false sharing, no overlap
					// stall).
					addr := uint64(j)*16*isa.TileSize + uint64(c)*isa.WordSize
					val := uint64(c*1000 + j + 1)
					ops[j] = isa.Op{Addr: addr, Kind: isa.Store, Orient: isa.Row, Value: val}
					want[addr] = val
				}
				traces[c] = isa.NewSliceTrace(ops)
			}
			res, err := m.RunTraces(traces...)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < cores; c++ {
				if got, _ := res.Metrics.Counter(fmt.Sprintf("cpu%d.ops", c)); got != perCore {
					t.Errorf("core %d retired %d ops, want %d", c, got, perCore)
				}
			}
			conflicts := res.Metrics.SumCounters(".set_conflicts")
			if conflicts == 0 {
				t.Error("saturating one set recorded no set-arbiter conflicts")
			}
			m.DrainAll()
			store := m.Memory.Store()
			for addr, v := range want {
				if got := store.ReadWord(addr); got != v {
					t.Errorf("memory[%#x] = %d after drain, want %d", addr, got, v)
				}
			}
		})
	}
}

// TestMultiCoreStallDiagnostics pins the per-core pending-op summaries in
// watchdog output: a multi-core machine aborted mid-flight must name each
// core's in-flight count and any op parked on the overlap-ordering rule.
func TestMultiCoreStallDiagnostics(t *testing.T) {
	cfg := mcConfig(D1DiffSet, 2)
	cfg.MaxCycles = 10 // far below any fill latency: both cores stay stuck
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	line := isa.LineOf(0, isa.Row)
	load := isa.Op{Addr: line.Base, Kind: isa.Load, Orient: isa.Row, Vector: true}
	store := isa.Op{Addr: line.Base, Kind: isa.Store, Orient: isa.Row, Vector: true, Value: 1}
	// Core 0's load misses (its fill far outlasts the cycle budget); core
	// 1's overlapping store is parked by the cross-core ordering rule.
	_, err = m.RunTraces(
		isa.NewSliceTrace([]isa.Op{load}),
		isa.NewSliceTrace([]isa.Op{store}),
	)
	if !errors.Is(err, sim.ErrCycleLimit) {
		t.Fatalf("err = %v, want sim.ErrCycleLimit", err)
	}
	var serr *sim.Error
	if !errors.As(err, &serr) {
		t.Fatalf("err %T is not *sim.Error", err)
	}
	for _, wantSub := range []string{
		"cpu0-inflight=1",
		"cpu1-inflight=0",
		"cpu1-held=vstore@0x0(row)",
		"L1c0-mshr=",
		"L1c1-mshr=",
	} {
		if !strings.Contains(serr.Detail, wantSub) {
			t.Errorf("diagnostic %q missing %q", serr.Detail, wantSub)
		}
	}
}

// TestMultiCoreHitPathAllocFree pins the steady-state L1 hit paths of a
// 2-core machine, and the hub peek every L1 fill makes, at zero
// allocations: the set arbiters, snoop hub, and store-snoop hooks must not
// add allocation to the hot loop.
func TestMultiCoreHitPathAllocFree(t *testing.T) {
	m, err := Build(mcConfig(D1DiffSet, 2))
	if err != nil {
		t.Fatal(err)
	}
	q := m.Q
	l1 := m.Levels[0]
	done := func(uint64, uint64) {}
	warm := isa.Op{Addr: 0x40, Kind: isa.Store, Orient: isa.Row, Vector: true, Value: 100}
	l1.CPUAccess(q.Now(), warm, done)
	q.Run(0)

	load := isa.Op{Addr: 0x40, Kind: isa.Load, Orient: isa.Row}
	store := isa.Op{Addr: 0x40, Kind: isa.Store, Orient: isa.Row, Value: 7}
	for i := 0; i < 4; i++ { // warm slot pools and the event heap
		l1.CPUAccess(q.Now(), load, done)
		l1.CPUAccess(q.Now(), store, done)
		q.Run(0)
	}
	if n := testing.AllocsPerRun(200, func() {
		l1.CPUAccess(q.Now(), load, done)
		q.Run(0)
	}); n != 0 {
		t.Errorf("multi-core L1 load hit path allocates %v times per access, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		l1.CPUAccess(q.Now(), store, done)
		q.Run(0)
	}); n != 0 {
		t.Errorf("multi-core L1 store hit path (with store snoop) allocates %v times per access, want 0", n)
	}
	// Every L1 fill peeks through the hub; core 1's peek overlays core 0's
	// dirty line.
	port := m.Levels[1].(cacheLevel).ctl().below
	line := isa.LineOf(0x40, isa.Row)
	if n := testing.AllocsPerRun(200, func() { _ = port.Peek(line) }); n != 0 {
		t.Errorf("snoop hub peek allocates %v times per fill, want 0", n)
	}
}
