package mem

import (
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
// Tile payloads live in an off-heap arena on platforms that support it
// (mmap-backed on Linux, see store_linux.go), with an open-addressing index
// whose arrays are also arena-allocated: a multi-gigabyte simulated
// footprint adds O(1) to the Go heap and zero GC scan work. Other platforms
// fall back to a heap map with identical semantics (store_fallback.go).
type Store struct {
	tiles tileIndex
}

// NewStore returns an empty store. Unwritten words read as zero.
func NewStore() *Store {
	s := &Store{}
	s.tiles.init(s)
	return s
}

func (s *Store) tile(base uint64, create bool) *[isa.TileWords]uint64 {
	return s.tiles.get(base, create)
}

// ReadWord returns the word at the given (word-aligned) byte address.
func (s *Store) ReadWord(addr uint64) uint64 {
	t := s.tile(isa.TileBase(addr), false)
	if t == nil {
		return 0
	}
	return t[isa.WordIndex(addr)]
}

// WriteWord stores v at the given (word-aligned) byte address.
func (s *Store) WriteWord(addr uint64, v uint64) {
	s.tile(isa.TileBase(addr), true)[isa.WordIndex(addr)] = v
}

// ReadLine returns the 8 words of a row or column line.
func (s *Store) ReadLine(line isa.LineID) (data [isa.WordsPerLine]uint64) {
	t := s.tile(line.Tile(), false)
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
	t := s.tile(line.Tile(), true)
	for i := uint(0); i < isa.WordsPerLine; i++ {
		if mask&(1<<i) != 0 {
			t[isa.WordIndex(line.WordAddr(i))] = data[i]
		}
	}
}

// Tiles returns the number of distinct tiles ever written.
func (s *Store) Tiles() int { return s.tiles.count() }

// Footprint reports the bytes of backing memory the store holds (tile
// payloads plus index structures). On arena-backed platforms none of it is
// on the Go heap.
func (s *Store) Footprint() uint64 { return s.tiles.footprint() }

// ForEachWord invokes fn for every non-zero word in the store, in ascending
// address order (deterministic despite the unordered index). The conformance
// harness walks the store this way to detect ghost writes: words the memory
// holds that the reference model never stored.
func (s *Store) ForEachWord(fn func(addr, v uint64)) {
	s.tiles.forEachTile(func(b uint64, t *[isa.TileWords]uint64) {
		for i := range t {
			if t[i] != 0 {
				// Word index i is row-major: addr = base + i*WordSize.
				fn(b+uint64(i)*isa.WordSize, t[i])
			}
		}
	})
}
