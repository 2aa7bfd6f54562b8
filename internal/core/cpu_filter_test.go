package core

import (
	"math/rand"
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// scanConflicts is the reference for the overlap-ordering check: the plain
// scan over one core's whole in-flight window, with no tile-bucket filter.
func scanConflicts(c *CPU, op isa.Op) bool {
	isStore := op.Kind == isa.Store
	id := isa.LineFor(op)
	for _, e := range c.inflight {
		if !e.store && !isStore || !e.line.Overlaps(id) {
			continue
		}
		switch {
		case e.vector && op.Vector:
			return true
		case e.vector:
			if e.line.Contains(op.Addr) {
				return true
			}
		case op.Vector:
			if id.Contains(e.addr) {
				return true
			}
		default:
			if e.addr == op.Addr {
				return true
			}
		}
	}
	return false
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
// and machine-wide through coreGroup.conflicts.
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
				if got := c.windowConflicts(probe); got != w {
					t.Fatalf("cores=%d step %d: windowConflicts(%v) = %v, window scan %v", cores, step, probe, got, w)
				}
				want = want || w
			}
			if got := g.conflicts(probe); got != want {
				t.Fatalf("cores=%d step %d: coreGroup.conflicts(%v) = %v, window scan %v", cores, step, probe, got, want)
			}
			if want {
				conflicts++
			} else {
				skipped++
			}

			c := g.cpus[rng.Intn(cores)]
			if len(c.inflight) > 0 && (len(c.inflight) == c.window || rng.Intn(2) == 0) {
				c.retire(c.inflight[rng.Intn(len(c.inflight))].token)
			} else {
				c.issue(randFilterOp(rng))
			}
		}
		if conflicts == 0 || skipped == 0 {
			t.Fatalf("cores=%d: degenerate stream (%d conflicting probes, %d free)", cores, conflicts, skipped)
		}
		for _, c := range g.cpus {
			for len(c.inflight) > 0 {
				c.retire(c.inflight[0].token)
			}
			if c.tileOps != [tileBuckets]int32{} || c.tileStores != [tileBuckets]int32{} {
				t.Fatalf("cores=%d: tile counters not zero after the window drained", cores)
			}
		}
	}
}
