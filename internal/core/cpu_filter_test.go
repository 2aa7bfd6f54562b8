package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// opConflicts is the reference pairwise overlap-ordering rule: op may not
// pass in-flight op e.
func opConflicts(e *inflightOp, op isa.Op) bool {
	isStore := op.Kind == isa.Store
	id := isa.LineFor(op)
	if !e.store && !isStore || !e.line.Overlaps(id) {
		return false
	}
	switch {
	case e.vector && op.Vector:
		return true
	case e.vector:
		return e.line.Contains(op.Addr)
	case op.Vector:
		return id.Contains(e.addr)
	default:
		return e.addr == op.Addr
	}
}

// scanConflicts is the reference for the overlap-ordering check: the plain
// scan over one core's whole in-flight window, with no tile-bucket filter.
func scanConflicts(c *CPU, op isa.Op) bool {
	for i := range c.inflight {
		if opConflicts(&c.inflight[i], op) {
			return true
		}
	}
	return false
}

// checkBlocker fails unless got agrees with the reference want and, when
// non-nil, is an op in flight on one of cpus that op really conflicts with.
func checkBlocker(t *testing.T, what string, cpus []*CPU, op isa.Op, got *inflightOp, want bool) {
	t.Helper()
	if (got != nil) != want {
		t.Fatalf("%s(%v) = %v, window scan %v", what, op, got, want)
	}
	if got == nil {
		return
	}
	if !opConflicts(got, op) {
		t.Fatalf("%s(%v) returned %+v, which does not conflict", what, op, *got)
	}
	for _, c := range cpus {
		for i := range c.inflight {
			if &c.inflight[i] == got {
				return
			}
		}
	}
	t.Fatalf("%s(%v) returned an op that is not in flight", what, op)
}

// checkSlots fails unless every in-flight op's slot points back at it and
// carries a live token.
func checkSlots(t *testing.T, c *CPU) {
	t.Helper()
	for i := range c.inflight {
		if s := c.inflight[i].slot; s.idx != i || s.token == 0 {
			t.Fatalf("inflight[%d]: slot idx %d, token %d", i, s.idx, s.token)
		}
	}
}

// randFilterOp draws an op from a few tiles, some of them tileBuckets tiles
// apart so that they share a counter bucket without sharing a word.
func randFilterOp(rng *rand.Rand) isa.Op {
	tiles := []uint64{0, 1, tileBuckets, tileBuckets + 1, 2 * tileBuckets, 7}
	tile := tiles[rng.Intn(len(tiles))] * isa.TileSize
	r, c := uint64(rng.Intn(isa.LinesPerTile)), uint64(rng.Intn(isa.WordsPerLine))
	op := isa.Op{
		Kind:   isa.Kind(rng.Intn(2)),
		Orient: isa.Orient(rng.Intn(2)),
		Vector: rng.Intn(3) == 0,
	}
	switch {
	case !op.Vector:
		op.Addr = tile + r*isa.LineSize + c*isa.WordSize
	case op.Orient == isa.Row:
		op.Addr = tile + r*isa.LineSize
	default:
		op.Addr = tile + c*isa.WordSize
	}
	return op
}

// TestTileFilterMatchesWindowScan drives random issue/retire sequences
// through 1, 2 and 4 cores and checks, before every step, that the filtered
// check agrees with the plain window scan: per core through windowConflicts,
// and machine-wide through coreGroup.conflicts. A returned blocker must be
// in flight and conflict with the probe; retire must keep every slot's
// window index and token in sync and zero the retired slot's token.
func TestTileFilterMatchesWindowScan(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(cores)))
		q := &sim.EventQueue{} // never run: issue only queues the L1 access
		g := &coreGroup{}
		for i := 0; i < cores; i++ {
			g.cpus = append(g.cpus, NewCPU(q, nil, 16))
		}
		conflicts, skipped := 0, 0
		for step := 0; step < 20000; step++ {
			probe := randFilterOp(rng)
			want := false
			for _, c := range g.cpus {
				w := scanConflicts(c, probe)
				checkBlocker(t, fmt.Sprintf("cores=%d step %d: windowConflicts", cores, step), []*CPU{c}, probe, c.windowConflicts(probe), w)
				want = want || w
			}
			checkBlocker(t, fmt.Sprintf("cores=%d step %d: coreGroup.conflicts", cores, step), g.cpus, probe, g.conflicts(probe), want)
			if want {
				conflicts++
			} else {
				skipped++
			}

			c := g.cpus[rng.Intn(cores)]
			if len(c.inflight) > 0 && (len(c.inflight) == c.window || rng.Intn(2) == 0) {
				s := c.inflight[rng.Intn(len(c.inflight))].slot
				c.retire(s)
				if s.token != 0 {
					t.Fatalf("cores=%d step %d: retired slot keeps token %d", cores, step, s.token)
				}
			} else {
				c.issue(randFilterOp(rng))
			}
			checkSlots(t, c)
		}
		if conflicts == 0 || skipped == 0 {
			t.Fatalf("cores=%d: degenerate stream (%d conflicting probes, %d free)", cores, conflicts, skipped)
		}
		for _, c := range g.cpus {
			for len(c.inflight) > 0 {
				c.retire(c.inflight[0].slot)
			}
			if c.tileOps != [tileBuckets]int32{} || c.tileStores != [tileBuckets]int32{} {
				t.Fatalf("cores=%d: tile counters not zero after the window drained", cores)
			}
		}
	}
}

// TestHeldOpScansStayBounded is the regression for re-checking held ops on
// every retirement. Four cores store to one hot word between bursts of
// loads to private tiles, so most of the time three cores hold their hot
// store behind another core's while unrelated loads keep retiring. A held
// op is only re-checked once the op it conflicted with has retired, so the
// window scans per issued op must stay small.
func TestHeldOpScansStayBounded(t *testing.T) {
	const cores, rounds, burst = 4, 200, 8
	m, err := Build(mcConfig(D1DiffSet, cores))
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]isa.TraceReader, cores)
	for c := 0; c < cores; c++ {
		var ops []isa.Op
		for r := 0; r < rounds; r++ {
			ops = append(ops, isa.Op{Kind: isa.Store, Addr: 0, Orient: isa.Row, Value: uint64(r)})
			for i := 0; i < burst; i++ {
				// Tiles 1..800: never in the hot word's tile bucket.
				tile := uint64(1 + c*200 + (r*burst+i)%200)
				ops = append(ops, isa.Op{Addr: tile*isa.TileSize + uint64(i)*isa.LineSize, Orient: isa.Row})
			}
		}
		traces[c] = isa.NewSliceTrace(ops)
	}
	res, err := m.RunTraces(traces...)
	if err != nil {
		t.Fatal(err)
	}
	var scans, stalls uint64
	for _, c := range m.CPUs {
		scans += c.windowScans
		stalls += c.OrderStalls
	}
	if stalls < rounds {
		t.Fatalf("degenerate stream: %d order stalls over %d ops", stalls, res.Ops)
	}
	perOp := float64(scans) / float64(res.Ops)
	t.Logf("%d window scans, %d order stalls, %d ops: %.2f scans per op", scans, stalls, res.Ops, perOp)
	if perOp > 1 {
		t.Fatalf("%d window scans for %d issued ops (%.2f per op): held ops are re-checked while their blocker is in flight", scans, res.Ops, perOp)
	}
}
