// Package check is the cross-design conformance subsystem: a functional
// reference model, a seeded randomized trace generator with shrinking, and
// metamorphic invariant checkers that prove every cache design (1P1L, 1P2L,
// 1P2L_SameSet, 2P2L, and the ablation variants) returns exactly the data a
// flat memory would, for any access trace, fault injection on or off.
//
// The harness is the correctness backstop for every perf/scaling change:
// `go test ./internal/check` runs a bounded fixed-seed corpus, the soak mode
// (MDACHECK_TRACES=10000) runs the acceptance corpus, and cmd/mdacheck
// exposes the same checks as a CLI whose failures print a shrunk trace plus
// a copy-pasteable `mdacheck -seed ...` repro command.
package check

import (
	"mdacache/internal/isa"
)

// RefModel is the functional reference: a flat word-addressed memory
// replayed in program order. It is design-independent by construction —
// no caches, no timing, no orientations — so any simulated hierarchy that
// disagrees with it has a functional bug, not a modelling choice.
//
// Semantics mirror the machine's architectural contract (isa.Op): a scalar
// store writes Value at Addr; a vector store writes Value+i to word i of its
// line; a scalar load returns the word at Addr; a vector load returns word 0
// of its line. Unwritten words read as zero.
type RefModel struct {
	mem map[uint64]uint64
}

// NewRefModel returns an empty reference memory.
func NewRefModel() *RefModel {
	return &RefModel{mem: make(map[uint64]uint64)}
}

// Apply executes one op against the reference memory, returning the
// architectural load value (0 for stores).
func (r *RefModel) Apply(op isa.Op) uint64 {
	line := isa.LineFor(op)
	if op.Kind == isa.Store {
		if op.Vector {
			for w := uint(0); w < isa.WordsPerLine; w++ {
				r.mem[line.WordAddr(w)] = op.Value + uint64(w)
			}
		} else {
			r.mem[op.Addr] = op.Value
		}
		return 0
	}
	if op.Vector {
		return r.mem[line.WordAddr(0)]
	}
	return r.mem[op.Addr]
}

// Final returns the reference memory image: every word ever stored (possibly
// to zero) with its final value.
func (r *RefModel) Final() map[uint64]uint64 { return r.mem }

// Replay runs ops through a fresh reference model, returning the expected
// value of each access (indexed by op position; stores yield 0) and the
// final memory image.
func Replay(ops []isa.Op) ([]uint64, map[uint64]uint64) {
	r := NewRefModel()
	vals := make([]uint64, len(ops))
	for i, op := range ops {
		vals[i] = r.Apply(op)
	}
	return vals, r.mem
}

// refCacheLines is the size of the reference cache (direct-mapped, in
// lines). Deliberately tiny so replays exercise constant eviction.
const refCacheLines = 16

// refCache is the single-copy cache abstraction: a direct-mapped write-back
// cache of orientation-tagged lines over a flat memory, with the invariant
// that a written word exists in exactly one place (the writing line evicts
// any overlapping cached line before the write, write-backs flush on
// eviction). Replaying any trace through it must produce the same final
// image as the flat model — the executable statement of why duplicate
// coherence (Fig. 9) is required: a cache is value-transparent exactly when
// modified words are single-copy.
type refCache struct {
	mem   map[uint64]uint64
	lines [refCacheLines]struct {
		id    isa.LineID
		valid bool
		dirty uint8
		data  [isa.WordsPerLine]uint64
	}
}

func newRefCache() *refCache {
	return &refCache{mem: make(map[uint64]uint64)}
}

func (c *refCache) slot(id isa.LineID) int {
	// Spread tiles and line indices; fold the orientation in so row and
	// column lines of one tile land in different slots (they still get
	// evicted for single-copy on writes via evictOverlapping).
	h := id.Tile()>>9*isa.LinesPerTile + uint64(id.Index())
	if id.Orient == isa.Col {
		h += refCacheLines / 2
	}
	return int(h % refCacheLines)
}

func (c *refCache) evict(i int) {
	l := &c.lines[i]
	if l.valid && l.dirty != 0 {
		for w := uint(0); w < isa.WordsPerLine; w++ {
			if l.dirty&(1<<w) != 0 {
				c.mem[l.id.WordAddr(w)] = l.data[w]
			}
		}
	}
	l.valid = false
	l.dirty = 0
}

// evictOverlapping flushes and invalidates every cached line sharing a word
// with id (other than id itself) — the single-copy rule.
func (c *refCache) evictOverlapping(id isa.LineID) {
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid && l.id != id && l.id.Overlaps(id) {
			c.evict(i)
		}
	}
}

// fetch returns the cached line for id, filling it from memory if needed.
func (c *refCache) fetch(id isa.LineID) int {
	i := c.slot(id)
	if c.lines[i].valid && c.lines[i].id == id {
		return i
	}
	c.evict(i)
	l := &c.lines[i]
	l.id, l.valid, l.dirty = id, true, 0
	for w := uint(0); w < isa.WordsPerLine; w++ {
		l.data[w] = c.mem[id.WordAddr(w)]
	}
	return i
}

func (c *refCache) apply(op isa.Op) uint64 {
	id := isa.LineFor(op)
	if op.Kind == isa.Store {
		c.evictOverlapping(id)
		i := c.fetch(id)
		l := &c.lines[i]
		if op.Vector {
			for w := uint(0); w < isa.WordsPerLine; w++ {
				l.data[w] = op.Value + uint64(w)
			}
			l.dirty = 0xff
		} else {
			off, _ := id.WordOffset(op.Addr)
			l.data[off] = op.Value
			l.dirty |= 1 << off
		}
		return 0
	}
	// Loads must observe dirty words held by overlapping lines; rather than
	// peeking sideways, flush overlaps first — single-copy makes the cached
	// (or refetched) line authoritative.
	c.evictOverlapping(id)
	i := c.fetch(id)
	if op.Vector {
		return c.lines[i].data[0]
	}
	off, _ := id.WordOffset(op.Addr)
	return c.lines[i].data[off]
}

func (c *refCache) drain() {
	for i := range c.lines {
		c.evict(i)
	}
}

// ReplayCached replays ops through the single-copy reference cache and
// returns per-access values and the drained final image. The check package's
// own tests assert it agrees with Replay on every corpus trace — the
// self-check that the reference semantics are cache-transparent.
func ReplayCached(ops []isa.Op) ([]uint64, map[uint64]uint64) {
	c := newRefCache()
	vals := make([]uint64, len(ops))
	for i, op := range ops {
		vals[i] = c.apply(op)
	}
	c.drain()
	return vals, c.mem
}
