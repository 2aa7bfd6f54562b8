package core

import (
	"io"
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
)

// allocCache builds an instrumented-or-not 1P2L cache with one warm row line
// for hit-path allocation pins.
func allocCache(t *testing.T, tr *obs.Tracer) (*sim.EventQueue, *Cache1P) {
	t.Helper()
	q := &sim.EventQueue{}
	stub := newStub(q)
	c, err := NewCache1P(q, CacheParams{
		Name: "L1", SizeBytes: 2 * KB, Assoc: 2,
		TagLat: 2, DataLat: 2, MSHRs: 4, Mapping: DifferentSet,
	}, true, stub)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		c.Instrument(obs.NewRegistry(), tr)
	}
	access(t, q, c, vectorStore(isa.LineOf(0x40, isa.Row), 100)) // warm line
	return q, c
}

// pinHitPath measures a steady-state scalar-load hit: pools warmed, done
// callback pre-bound, so the whole access→complete cycle must be alloc-free.
func pinHitPath(t *testing.T, q *sim.EventQueue, c *Cache1P) {
	t.Helper()
	op := scalarLoad(0x40, isa.Row)
	done := func(uint64, uint64) {}
	for i := 0; i < 4; i++ { // warm the event queue's slot pool and heap
		c.CPUAccess(q.Now(), op, done)
		q.Run(0)
	}
	if n := testing.AllocsPerRun(200, func() {
		c.CPUAccess(q.Now(), op, done)
		q.Run(0)
	}); n != 0 {
		t.Fatalf("L1 hit path allocates %v times per access, want 0", n)
	}
}

// TestL1HitPathAllocFree pins 0 allocs/op on the uninstrumented L1 scalar
// hit path — the hottest loop in every simulation.
func TestL1HitPathAllocFree(t *testing.T) {
	q, c := allocCache(t, nil)
	pinHitPath(t, q, c)
}

// TestL1HitPathAllocFreeWithDisabledTracer pins the same path with a tracer
// attached but filtered to another category: the Enabled() guard must keep
// disabled-tracer emit at a single branch, with zero allocations.
func TestL1HitPathAllocFreeWithDisabledTracer(t *testing.T) {
	tr := obs.NewTracer(io.Discard, obs.TraceConfig{Cats: obs.CatMem})
	defer tr.Close()
	q, c := allocCache(t, tr)
	pinHitPath(t, q, c)
}

// pinLineFillHit measures a steady-state line Fill hit served to the level
// above: the line travels in the event queue's ScheduleData slot, so the
// whole Fill→done cycle must be alloc-free once the slot pool is warm.
func pinLineFillHit(t *testing.T, q *sim.EventQueue, c Backend, id isa.LineID) {
	t.Helper()
	done := func(uint64, *[isa.WordsPerLine]uint64) {}
	for i := 0; i < 4; i++ { // warm the event queue's slot pool and wheel
		c.Fill(q.Now(), id, done)
		q.Run(0)
	}
	if n := testing.AllocsPerRun(200, func() {
		c.Fill(q.Now(), id, done)
		q.Run(0)
	}); n != 0 {
		t.Fatalf("line Fill hit allocates %v times per fill, want 0", n)
	}
}

// TestLineFillHitAllocFreeCache1P pins 0 allocs on a Cache1P serving a
// resident line upward: the fill path every L2/LLC hit takes.
func TestLineFillHitAllocFreeCache1P(t *testing.T) {
	q, c := allocCache(t, nil)
	pinLineFillHit(t, q, c, isa.LineOf(0x40, isa.Row))
}

// TestLineFillHitAllocFreeCache2P pins the same path on a tile cache, which
// gathers the line out of its tile before handing it upward.
func TestLineFillHitAllocFreeCache2P(t *testing.T) {
	q, c, _ := test2P2L(t, false)
	id := isa.LineOf(0x40, isa.Col)
	fill(t, q, c, id) // miss once; every later Fill of id hits
	pinLineFillHit(t, q, c, id)
}

// TestPrefetchObserveAllocFree is the regression pin for the stride
// prefetcher's per-trigger address list: once a PC is confident, observe must
// reuse its buffers and allocate nothing.
func TestPrefetchObserveAllocFree(t *testing.T) {
	p := newStridePrefetcher(2)
	op := isa.Op{PC: 7, Addr: 0}
	for i := 0; i < 8; i++ { // train a stable one-line stride
		op.Addr += isa.LineSize
		p.observe(op)
	}
	op.Addr += isa.LineSize
	if got := p.observe(op); len(got) == 0 {
		t.Fatal("prefetcher not confident after training")
	}
	if n := testing.AllocsPerRun(200, func() {
		op.Addr += isa.LineSize
		p.observe(op)
	}); n != 0 {
		t.Fatalf("confident observe allocates %v times per trigger, want 0", n)
	}
}
