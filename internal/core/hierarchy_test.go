package core

import (
	"testing"
	"unsafe"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// buildTiny builds a 3-level machine at test scale.
func buildTiny(t *testing.T, d Design) *Machine {
	t.Helper()
	m, err := Build(tinyConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWritebackCascade drives enough dirty data through a tiny hierarchy to
// force L1→L2→L3→memory writeback chains, then verifies memory contents.
func TestWritebackCascade(t *testing.T) {
	for _, d := range []Design{D0Baseline, D1DiffSet, D2Sparse} {
		m := buildTiny(t, d)
		var ops []isa.Op
		// Store a distinct value to word 0 of 128 tiles — far beyond every
		// level's capacity.
		for i := uint64(0); i < 128; i++ {
			ops = append(ops, isa.Op{Addr: i * isa.TileSize, Kind: isa.Store, Value: i + 1})
		}
		mustRun(t, m, isa.NewSliceTrace(ops))
		m.DrainAll()
		for i := uint64(0); i < 128; i++ {
			if got := m.Memory.Store().ReadWord(i * isa.TileSize); got != i+1 {
				t.Fatalf("%v: tile %d word = %d", d, i, got)
			}
		}
	}
}

// TestCrossLevelColumnFlow checks Design 2's characteristic path: a column
// line requested by the 1P2L L1 flows through the 1P2L L2 and the 2P2L LLC
// down to the MDA memory as a column at every level.
func TestCrossLevelColumnFlow(t *testing.T) {
	m := buildTiny(t, D2Sparse)
	col := isa.LineID{Base: 5 * isa.TileSize, Orient: isa.Col}
	// Seed memory.
	for w := uint(0); w < 8; w++ {
		m.Memory.Store().WriteWord(col.WordAddr(w), 100+uint64(w))
	}
	res := mustRun(t, m, isa.NewSliceTrace([]isa.Op{
		{Addr: col.Base, Orient: isa.Col, Vector: true},
	}))
	if res.Mem.Reads[isa.Col] != 1 {
		t.Fatalf("memory column reads = %d", res.Mem.Reads[isa.Col])
	}
	for li, lvl := range m.Levels {
		_, cols := lvl.Occupancy()
		if cols == 0 {
			t.Fatalf("level %d holds no column line after a column fill", li)
		}
	}
}

// TestDirtyColumnThroughTileCache: a dirty column line written back from
// the 1P2L levels must land in the 2P2L LLC sparsely and reach memory
// intact on eviction.
func TestDirtyColumnThroughTileCache(t *testing.T) {
	m := buildTiny(t, D2Sparse)
	col := isa.LineID{Base: 3 * isa.WordSize, Orient: isa.Col}
	ops := []isa.Op{
		{Addr: col.Base, Orient: isa.Col, Vector: true, Kind: isa.Store, Value: 1000},
	}
	mustRun(t, m, isa.NewSliceTrace(ops))
	m.DrainAll()
	for w := uint(0); w < 8; w++ {
		if got := m.Memory.Store().ReadWord(col.WordAddr(w)); got != 1000+uint64(w) {
			t.Fatalf("column word %d = %d", w, got)
		}
	}
}

// TestMixedOrientationSharing: a row store followed by an overlapping
// column load through the full hierarchy returns the stored word.
func TestMixedOrientationSharing(t *testing.T) {
	for _, d := range []Design{D1DiffSet, D1SameSet, D2Sparse, D3AllTile} {
		m := buildTiny(t, d)
		row := isa.LineID{Base: 0, Orient: isa.Row}
		col := isa.LineID{Base: 0, Orient: isa.Col}
		var loaded uint64
		m.CPU.OnLoad = func(op isa.Op, v uint64) { loaded = v }
		mustRun(t, m, isa.NewSliceTrace([]isa.Op{
			{Addr: row.Base, Orient: isa.Row, Vector: true, Kind: isa.Store, Value: 500},
			{Addr: col.Base, Orient: isa.Col, Vector: true, Kind: isa.Load},
		}))
		// Column word 0 crosses row word 0 = payload 500.
		if loaded != 500 {
			t.Fatalf("%v: column load word0 = %d, want 500", d, loaded)
		}
	}
}

// TestBaselineUsesPrefetcher confirms the Design-0 configuration actually
// prefetches (the paper's baseline is 1P1L *with* prefetching).
func TestBaselineUsesPrefetcher(t *testing.T) {
	m := buildTiny(t, D0Baseline)
	var ops []isa.Op
	for i := uint64(0); i < 256; i++ {
		ops = append(ops, isa.Op{Addr: i * isa.LineSize, PC: 1})
	}
	res := mustRun(t, m, isa.NewSliceTrace(ops))
	if res.L1().PrefetchIssued == 0 || res.L1().PrefetchUseful == 0 {
		t.Fatalf("baseline prefetcher inactive: %+v", res.L1())
	}
}

// TestMDAHierarchiesDontPrefetch confirms MDA designs run without
// prefetching, per §VII.
func TestMDAHierarchiesDontPrefetch(t *testing.T) {
	m := buildTiny(t, D1DiffSet)
	var ops []isa.Op
	for i := uint64(0); i < 64; i++ {
		ops = append(ops, isa.Op{Addr: i * isa.LineSize, PC: 1})
	}
	res := mustRun(t, m, isa.NewSliceTrace(ops))
	if res.L1().PrefetchIssued != 0 {
		t.Fatal("1P2L should not prefetch in the paper's configuration")
	}
}

// TestPeekChainThreeLevels verifies the synchronous functional path walks
// all levels: a word dirty only in L1 must be visible via the LLC's Peek.
func TestPeekChainThreeLevels(t *testing.T) {
	m := buildTiny(t, D1DiffSet)
	mustRun(t, m, isa.NewSliceTrace([]isa.Op{
		{Addr: 0, Kind: isa.Store, Value: 777},
	}))
	llc := m.Levels[len(m.Levels)-1]
	got := llc.(*Cache1P).Peek(isa.LineOf(0, isa.Row))
	_ = got
	// Peek on the LLC sees only the LLC and below; the L1-dirty word is
	// visible through the L1's Peek (the chain is rooted at the requester).
	l1 := m.Levels[0].(*Cache1P)
	if v := l1.Peek(isa.LineOf(0, isa.Row))[0]; v != 777 {
		t.Fatalf("L1 Peek = %d", v)
	}
}

// TestResultsAccessors sanity-checks the Results helper methods.
func TestResultsAccessors(t *testing.T) {
	m := buildTiny(t, D1DiffSet)
	res := mustRun(t, m, isa.NewSliceTrace([]isa.Op{{Addr: 0}}))
	if res.L1().Name != "L1" || res.LLC().Name != "L3" {
		t.Fatalf("accessors: %q %q", res.L1().Name, res.LLC().Name)
	}
	if res.Loads != 1 || res.Stores != 0 {
		t.Fatalf("counts: %+v", res)
	}
}

// TestStreamTraceThroughMachine runs a generator-backed trace end to end
// (exercising the Close path in Run).
func TestStreamTraceThroughMachine(t *testing.T) {
	m := buildTiny(t, D1DiffSet)
	tr := isa.Stream(func(emit func(isa.Op) bool) {
		for i := uint64(0); i < 100; i++ {
			if !emit(isa.Op{Addr: i * isa.LineSize}) {
				return
			}
		}
	})
	res := mustRun(t, m, tr)
	if res.Ops != 100 {
		t.Fatalf("ops = %d", res.Ops)
	}
}

// TestDeterministicRuns: identical builds and traces give identical cycle
// counts — the property that makes the recorded experiments reproducible.
func TestDeterministicRuns(t *testing.T) {
	run := func() uint64 {
		m := buildTiny(t, D2Sparse)
		ops := randomTrace(42, 2000, 16, false)
		return mustRun(t, m, isa.NewSliceTrace(ops)).Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

// TestEventQueueEmptiesAfterRun guards against leaked periodic events.
func TestEventQueueEmptiesAfterRun(t *testing.T) {
	cfg := tinyConfig(D1DiffSet)
	cfg.OccupancySampleInterval = 50
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, m, isa.NewSliceTrace(randomTrace(7, 500, 8, false)))
	if m.Q.Pending() != 0 {
		t.Fatalf("pending events after run: %d", m.Q.Pending())
	}
	var q sim.EventQueue
	_ = q
}

// TestBuildsShareMetricNames pins metric-name interning: two machines'
// snapshots key their metrics with the same string storage, so Results kept
// from many runs do not each carry a copy of every name.
func TestBuildsShareMetricNames(t *testing.T) {
	a := buildTiny(t, D1DiffSet).Registry.Snapshot()
	b := buildTiny(t, D1DiffSet).Registry.Snapshot()
	if len(a.Counters) == 0 || len(a.Counters) != len(b.Counters) {
		t.Fatalf("counter sets differ: %d vs %d", len(a.Counters), len(b.Counters))
	}
	ptrs := make(map[string]*byte, len(b.Counters))
	for _, e := range b.Counters {
		ptrs[e.Name] = unsafe.StringData(e.Name)
	}
	for _, e := range a.Counters {
		if p, ok := ptrs[e.Name]; !ok || p != unsafe.StringData(e.Name) {
			t.Fatalf("counter %q not shared between builds", e.Name)
		}
	}
}
