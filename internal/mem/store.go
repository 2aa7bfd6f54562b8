package mem

import (
	"sort"

	"mdacache/internal/isa"
)

// Store is the functional backing store: the actual 64-bit words held by the
// memory, organised as a sparse set of 512-byte tiles. Tiles are stored
// row-major (word index = rowInTile*8 + colInTile), so both row and column
// lines are simple strided views.
//
// The store exists so that the entire simulated hierarchy moves real data:
// every load in a simulation returns the value most recently stored to that
// word, and the test suite exploits this to verify the coherence of the
// duplicate-handling policies against a flat oracle.
//
// Tiles live in a plain heap map keyed by tile base, allocated on first
// write. The paper's inputs touch a few megabytes (at N=512 no kernel's
// footprint exceeds 6 MiB), so the map costs the GC little.
type Store struct {
	tiles map[uint64]*[isa.TileWords]uint64
}

// NewStore returns an empty store. Unwritten words read as zero.
func NewStore() *Store {
	return &Store{tiles: make(map[uint64]*[isa.TileWords]uint64)}
}

// ReadWord returns the word at the given (word-aligned) byte address.
func (s *Store) ReadWord(addr uint64) uint64 {
	t := s.tiles[isa.TileBase(addr)]
	if t == nil {
		return 0
	}
	return t[isa.WordIndex(addr)]
}

// writeTile returns the tile at base, allocating it on first use.
func (s *Store) writeTile(base uint64) *[isa.TileWords]uint64 {
	t := s.tiles[base]
	if t == nil {
		t = new([isa.TileWords]uint64)
		s.tiles[base] = t
	}
	return t
}

// WriteWord stores v at the given (word-aligned) byte address.
func (s *Store) WriteWord(addr uint64, v uint64) {
	s.writeTile(isa.TileBase(addr))[isa.WordIndex(addr)] = v
}

// ReadLine returns the 8 words of a row or column line.
func (s *Store) ReadLine(line isa.LineID) (data [isa.WordsPerLine]uint64) {
	t := s.tiles[line.Tile()]
	if t == nil {
		return data
	}
	for i := uint(0); i < isa.WordsPerLine; i++ {
		data[i] = t[isa.WordIndex(line.WordAddr(i))]
	}
	return data
}

// WriteLine stores the words of data selected by mask (bit i covers word i
// of the line) into a row or column line.
func (s *Store) WriteLine(line isa.LineID, mask uint8, data [isa.WordsPerLine]uint64) {
	if mask == 0 {
		return
	}
	t := s.writeTile(line.Tile())
	for i := uint(0); i < isa.WordsPerLine; i++ {
		if mask&(1<<i) != 0 {
			t[isa.WordIndex(line.WordAddr(i))] = data[i]
		}
	}
}

// Tiles returns the number of distinct tiles ever written.
func (s *Store) Tiles() int { return len(s.tiles) }

// ForEachWord invokes fn for every non-zero word in the store, in ascending
// address order (deterministic despite the unordered map). The conformance
// harness walks the store this way to detect ghost writes: words the memory
// holds that the reference model never stored.
func (s *Store) ForEachWord(fn func(addr, v uint64)) {
	bases := make([]uint64, 0, len(s.tiles))
	for b := range s.tiles {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, b := range bases {
		t := s.tiles[b]
		for i := range t {
			if t[i] != 0 {
				// Word index i is row-major: addr = base + i*WordSize.
				fn(b+uint64(i)*isa.WordSize, t[i])
			}
		}
	}
}
