package mem

import (
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// TestArenaStoreMatchesMapSemantics differentially checks the tile store
// against a plain word-map oracle over a random word workload, including the
// tile count and the sorted ForEachWord walk.
func TestArenaStoreMatchesMapSemantics(t *testing.T) {
	s := NewStore()
	oracle := make(map[uint64]uint64)
	rng := sim.NewRNG(0xa7e4a)
	for i := 0; i < 200000; i++ {
		addr := (rng.Uint64() % (1 << 24)) &^ 7
		if rng.Intn(4) == 0 {
			if got, want := s.ReadWord(addr), oracle[addr]; got != want {
				t.Fatalf("ReadWord(%#x) = %d, want %d", addr, got, want)
			}
			continue
		}
		v := rng.Uint64()
		s.WriteWord(addr, v)
		oracle[addr] = v
	}
	tiles := make(map[uint64]bool)
	for a := range oracle {
		tiles[isa.TileBase(a)] = true
	}
	if s.Tiles() != len(tiles) {
		t.Fatalf("Tiles() = %d, want %d", s.Tiles(), len(tiles))
	}
	var last uint64
	first := true
	seen := 0
	s.ForEachWord(func(addr, v uint64) {
		if !first && addr <= last {
			t.Fatalf("ForEachWord order violation: %#x after %#x", addr, last)
		}
		first, last = false, addr
		if oracle[addr] != v {
			t.Fatalf("ForEachWord(%#x) = %d, want %d", addr, v, oracle[addr])
		}
		if v != 0 {
			seen++
		}
	})
	nonzero := 0
	for _, v := range oracle {
		if v != 0 {
			nonzero++
		}
	}
	if seen != nonzero {
		t.Fatalf("ForEachWord visited %d non-zero words, oracle has %d", seen, nonzero)
	}
}

// TestSteadyStateZeroAlloc pins that the memory controller's dispatch path
// (request pool, pre-bound enqueue and completion closures, channel queues,
// retry wakes) allocates nothing once warm.
func TestSteadyStateZeroAlloc(t *testing.T) {
	q := &sim.EventQueue{}
	m, err := New(q, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	done := func(uint64, *[isa.WordsPerLine]uint64) {}
	var data [isa.WordsPerLine]uint64
	lines := make([]isa.LineID, 16)
	for i := range lines {
		lines[i] = isa.LineID{Base: uint64(i) * isa.TileSize, Orient: isa.Orient(i % 2)}
	}
	step := func() {
		at := q.Now()
		for i, ln := range lines {
			m.Fill(at, ln, done)
			if i%4 == 3 {
				m.Writeback(at, ln, 0x0f, data)
			}
		}
		q.Run(0)
	}
	for i := 0; i < 8; i++ {
		step() // warm the request pool and the queue's slot pool and wheel slabs
	}
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("steady state allocates %.2f allocs/run, want 0", avg)
	}
}
