package core

import (
	"math/bits"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// tile is one physically-2-D cache block: an 8-line × 8-line, 512-byte
// 2-D allocation unit (Fig. 7, bottom). Presence is tracked per small line
// in each orientation (8 row-valid + 8 col-valid bits — the sparse-fill
// footprint of §IV-B(b)); a word is present iff its row or its column line
// has been filled. Dirtiness is tracked per small line (rowDirty/colDirty),
// which the paper notes "can also be added to save write back bandwidth".
type tile struct {
	base     uint64
	way      int32 // fixed index into Cache2P.tiles and the controller's tags
	rowValid uint8
	colValid uint8
	rowDirty uint8
	colDirty uint8
	data     [isa.TileWords]uint64 // row-major: word (r,c) at r*8+c
}

func (t *tile) wordValid(r, c uint) bool {
	return t.rowValid&(1<<r) != 0 || t.colValid&(1<<c) != 0
}

// lineValid reports whether every word of the line is present.
func (t *tile) lineValid(id isa.LineID) bool {
	if id.Orient == isa.Row {
		return t.rowValid&(1<<id.Index()) != 0 || t.colValid == 0xff
	}
	return t.colValid&(1<<id.Index()) != 0 || t.rowValid == 0xff
}

// linePartial reports whether some but not all words of the line are
// present (a partial hit from intersecting fills of the other orientation).
func (t *tile) linePartial(id isa.LineID) bool {
	if t.lineValid(id) {
		return false
	}
	if id.Orient == isa.Row {
		return t.colValid != 0
	}
	return t.rowValid != 0
}

// readLine copies the line's words out of the tile.
func (t *tile) readLine(id isa.LineID) (data [isa.WordsPerLine]uint64) {
	if id.Orient == isa.Row {
		r := id.Index()
		copy(data[:], t.data[r*isa.WordsPerLine:(r+1)*isa.WordsPerLine])
		return data
	}
	c := id.Index()
	for r := uint(0); r < isa.LinesPerTile; r++ {
		data[r] = t.data[r*isa.WordsPerLine+c]
	}
	return data
}

// writeLine stores the selected words of data into the tile.
func (t *tile) writeLine(id isa.LineID, mask uint8, data [isa.WordsPerLine]uint64) {
	if id.Orient == isa.Row {
		r := id.Index()
		for c := uint(0); c < isa.WordsPerLine; c++ {
			if mask&(1<<c) != 0 {
				t.data[r*isa.WordsPerLine+c] = data[c]
			}
		}
		return
	}
	c := id.Index()
	for r := uint(0); r < isa.LinesPerTile; r++ {
		if mask&(1<<r) != 0 {
			t.data[r*isa.WordsPerLine+c] = data[r]
		}
	}
}

// Cache2P is the physically and logically 2-D MDACache (Designs 2 and 3):
// a set-associative cache of 512-byte tiles built from an on-chip MDA (STT)
// array. There is no data duplication — each word has exactly one location —
// so no orientation bits or duplicate policy are needed (§IV-C, Design 2).
// Fills are sparse by default (one row or column line on demand); the dense
// variant fills the whole 2-D block on a miss.
type Cache2P struct {
	cacheCtl
	dense bool

	// tiles holds every way, parallel to the controller's tags: the tag of
	// a valid way is its tile base|tagValid.
	tiles []tile
}

// NewCache2P builds a tile cache above the given backend.
func NewCache2P(q *sim.EventQueue, p CacheParams, dense bool, below Backend) (*Cache2P, error) {
	c := &Cache2P{dense: dense}
	if err := c.init(q, p, below, isa.TileSize); err != nil {
		return nil, err
	}
	c.tileArr = c
	c.fillDeliver += p.WriteAsymmetry // the fill writes the STT array
	c.tiles = make([]tile, len(c.tags))
	for w := range c.tiles {
		c.tiles[w].way = int32(w)
	}
	return c, nil
}

func (c *Cache2P) setIndex(tileBase uint64) int { return c.setOf(tileBase >> 9) }

func (c *Cache2P) find(tileBase uint64) *tile {
	if w := c.findWay(c.setIndex(tileBase), tileBase); w >= 0 {
		return &c.tiles[w]
	}
	return nil
}

// flushTile writes back the tile's dirty small lines and marks it clean:
// dirty rows in full, then dirty columns masked to skip words already
// covered by a dirty row (the word values are identical — tiles hold a
// single copy).
func (c *Cache2P) flushTile(at uint64, t *tile) {
	c.writebackLines(at, t, t.rowDirty, t.colDirty, ^t.rowDirty)
	t.rowDirty, t.colDirty = 0, 0
}

// writebackLines writes back the small lines of t selected by rows (in
// full) and then by cols (masked to colMask; none when colMask is 0), each
// in index order.
func (c *Cache2P) writebackLines(at uint64, t *tile, rows, cols, colMask uint8) {
	for r := uint(0); r < isa.LinesPerTile; r++ {
		if rows&(1<<r) != 0 {
			id := isa.LineID{Base: t.base + uint64(r)*isa.LineSize, Orient: isa.Row}
			c.writeback(at, id, 0xff, t.readLine(id))
		}
	}
	for col := uint(0); col < isa.LinesPerTile; col++ {
		if cols&(1<<col) != 0 && colMask != 0 {
			id := isa.LineID{Base: t.base + uint64(col)*isa.WordSize, Orient: isa.Col}
			c.writeback(at, id, colMask, t.readLine(id))
		}
	}
}

// ensureTile returns the resident tile for tileBase, allocating (and
// evicting a victim) if needed.
func (c *Cache2P) ensureTile(at uint64, tileBase uint64) *tile {
	if t := c.find(tileBase); t != nil {
		return t
	}
	w := c.victim(c.setIndex(tileBase))
	v := &c.tiles[w]
	if c.tags[w] != 0 {
		c.stats.Evictions++
		c.flushTile(at, v)
	}
	*v = tile{base: tileBase, way: v.way}
	c.place(w, tileBase)
	return v
}

// markLine sets the line's presence (and optionally dirty) bits.
func markLine(t *tile, id isa.LineID, dirty bool) {
	bit := uint8(1) << id.Index()
	if id.Orient == isa.Row {
		t.rowValid |= bit
		if dirty {
			t.rowDirty |= bit
		}
	} else {
		t.colValid |= bit
		if dirty {
			t.colDirty |= bit
		}
	}
}

// fillSiblings requests the rest of id's 2-D block as background fills
// after a demand miss of a dense cache (§IV-B(d): "all rows/columns within
// the 2-D block will follow").
func (c *Cache2P) fillSiblings(at uint64, id isa.LineID) {
	tileBase := id.Tile()
	for i := uint(0); i < isa.LinesPerTile; i++ {
		sib := isa.LineID{Orient: id.Orient}
		if id.Orient == isa.Row {
			sib.Base = tileBase + uint64(i)*isa.LineSize
		} else {
			sib.Base = tileBase + uint64(i)*isa.WordSize
		}
		if sib == id {
			continue
		}
		if t := c.find(tileBase); t != nil && t.lineValid(sib) {
			continue
		}
		c.requestFill(at, sib, true, fillTarget{})
	}
}

// installFill merges an arrived line into its tile and returns the merged
// line. Only words not already present are taken from the fill — resident
// words (which may be dirty via intersecting lines) take precedence,
// preserving single-copy semantics. The fill latches the freshest committed
// data below rather than the (possibly overtaken) timing payload — see
// Backend.Peek.
func (c *Cache2P) installFill(at uint64, id isa.LineID) [isa.WordsPerLine]uint64 {
	data := c.below.Peek(id)
	t := c.ensureTile(at, id.Tile())
	var mask uint8
	for i := uint(0); i < isa.WordsPerLine; i++ {
		addr := id.WordAddr(i)
		if !t.wordValid(isa.RowInTile(addr), isa.ColInTile(addr)) {
			mask |= 1 << i
		}
	}
	t.writeLine(id, mask, data)
	markLine(t, id, false)
	c.touch(int(t.way))
	return t.readLine(id)
}

// applyStore lands a store target of a fill. Its tile was filled in the
// same call and nothing in between evicts it (see Cache1P.applyStore).
func (c *Cache2P) applyStore(at uint64, addr, value uint64) {
	t := c.find(isa.TileBase(addr))
	if t == nil {
		panic("core: store target's tile not resident at fill")
	}
	c.applyScalarStore(at, t, addr, value)
}

// chargePort reserves the cache port (the per-set arbiter covering tileBase
// when set arbitration is enabled, else the global port). Writes to the STT
// array additionally occupy it for WriteAsymmetry cycles (Fig. 16's
// slow-write sensitivity).
func (c *Cache2P) chargePort(at uint64, tileBase uint64, probes int, write bool) uint64 {
	occ := uint64(probes)
	if write {
		occ += c.p.WriteAsymmetry
	}
	return c.acquirePort(at, c.setIndex(tileBase), occ)
}

// CPUAccess implements Level (used when a Cache2P is the L1 — Design 3).
func (c *Cache2P) CPUAccess(at uint64, op isa.Op, done func(at uint64, value uint64)) {
	c.countAccess(op)
	id := isa.LineFor(op)
	if !c.checkCanonical(id) {
		return
	}
	t := c.find(id.Tile())
	switch {
	case op.Vector && op.Kind == isa.Store:
		start := c.chargePort(at, id.Tile(), 1, true)
		nt := c.ensureTile(start, id.Tile())
		data := vectorPayload(op.Value)
		nt.writeLine(id, 0xff, data)
		markLine(nt, id, true)
		c.touch(int(nt.way))
		if t != nil {
			c.hit(at, id)
		} else {
			c.miss(at, id)
		}
		if c.onWrite != nil {
			c.onWrite(start, id, 0xff)
		}
		c.q.ScheduleArg(start+c.hitLat, done, 0)

	case op.Vector: // vector load
		start := c.chargePort(at, id.Tile(), 1, false)
		if t != nil && t.lineValid(id) {
			c.hit(at, id)
			c.promote(int(t.way))
			c.q.ScheduleArg(start+c.hitLat, done, t.readLine(id)[0])
			return
		}
		if t != nil && t.linePartial(id) {
			c.stats.PartialHits++
		}
		c.miss(at, id)
		c.requestFill(start+c.p.TagLat, id, false, fillTarget{kind: tWord, off: 0, done1: done})

	case op.Kind == isa.Load:
		start := c.chargePort(at, id.Tile(), 1, false)
		r, col := isa.RowInTile(op.Addr), isa.ColInTile(op.Addr)
		if t != nil && t.wordValid(r, col) {
			c.hit(at, id)
			c.promote(int(t.way))
			c.q.ScheduleArg(start+c.hitLat, done, t.data[r*isa.WordsPerLine+col])
			return
		}
		c.miss(at, id)
		off, _ := id.WordOffset(op.Addr)
		c.requestFill(start+c.p.TagLat, id, false, fillTarget{kind: tWord, off: uint8(off), done1: done})

	default: // scalar store
		start := c.chargePort(at, id.Tile(), 1, true)
		if t != nil && t.wordValid(isa.RowInTile(op.Addr), isa.ColInTile(op.Addr)) {
			c.hit(at, id)
			c.applyScalarStore(start, t, op.Addr, op.Value)
			c.q.ScheduleArg(start+c.hitLat, done, 0)
			return
		}
		c.miss(at, id)
		c.requestFill(start+c.p.TagLat, id, false,
			fillTarget{kind: tStore, addr: op.Addr, value: op.Value, done1: done})
	}
}

// applyScalarStore writes one word, dirtying the small line that provides
// its validity (dirty ⊆ valid at line granularity).
func (c *Cache2P) applyScalarStore(at uint64, t *tile, addr, value uint64) {
	r, col := isa.RowInTile(addr), isa.ColInTile(addr)
	t.data[r*isa.WordsPerLine+col] = value
	switch {
	case t.rowValid&(1<<r) != 0:
		t.rowDirty |= 1 << r
	case t.colValid&(1<<col) != 0:
		t.colDirty |= 1 << col
	default:
		panic("core: scalar store to non-resident word in tile")
	}
	c.promote(int(t.way))
	if c.onWrite != nil {
		c.onWrite(at, isa.LineOf(addr, isa.Row), 1<<col)
	}
}

// Fill implements Backend for the level above.
func (c *Cache2P) Fill(at uint64, id isa.LineID, done func(uint64, *[isa.WordsPerLine]uint64)) {
	c.countAccess(isa.Op{Addr: id.Base, Orient: id.Orient, Vector: true})
	if !c.checkCanonical(id) {
		return
	}
	start := c.chargePort(at, id.Tile(), 1, false)
	if t := c.find(id.Tile()); t != nil {
		if t.lineValid(id) {
			c.hit(at, id)
			c.promote(int(t.way))
			data := t.readLine(id)
			c.q.ScheduleData(start+c.hitLat, done, &data)
			return
		}
		if t.linePartial(id) {
			c.stats.PartialHits++
		}
	}
	c.miss(at, id)
	c.requestFill(start+c.p.TagLat, id, false, fillTarget{kind: tLine, done8: done})
}

// Writeback implements Backend for the level above: absorb a line into its
// tile, allocating sparsely without a memory fetch (§IV-C Design 2: sparse
// fill avoids the 512-byte fetch on upper-level writebacks).
func (c *Cache2P) Writeback(at uint64, id isa.LineID, mask uint8, data [isa.WordsPerLine]uint64) {
	c.stats.WritebacksIn++
	if !c.checkCanonical(id) {
		return
	}
	start := c.chargePort(at, id.Tile(), 1, true)
	t := c.ensureTile(start, id.Tile())
	t.writeLine(id, 0xff, data) // all words valid at the writer; masked ones dirty
	markLine(t, id, mask != 0)
	c.touch(int(t.way))
}

// Peek implements Backend's synchronous functional-data path: words covered
// by the tile's dirty small lines overlay everything below.
func (c *Cache2P) Peek(id isa.LineID) [isa.WordsPerLine]uint64 {
	return c.peekDirty(id, c.below.Peek(id))
}

// peekDirty implements snooper: overlay the tile's dirty words of id.
func (c *Cache2P) peekDirty(id isa.LineID, data [isa.WordsPerLine]uint64) [isa.WordsPerLine]uint64 {
	t := c.find(id.Tile())
	if t == nil {
		return data
	}
	for i := uint(0); i < isa.WordsPerLine; i++ {
		addr := id.WordAddr(i)
		r, col := isa.RowInTile(addr), isa.ColInTile(addr)
		if t.rowDirty&(1<<r) != 0 || t.colDirty&(1<<col) != 0 {
			data[i] = t.data[r*isa.WordsPerLine+col]
		}
	}
	return data
}

// snoopFlush implements snooper: a remote core is reading id, so write back
// every dirty small line holding one of its words, leaving the tile resident
// but clean over id (M→S). For a row line that is the same-index dirty row
// plus every dirty column (each contains one word of the row); symmetric for
// a column line. Dirty ⊆ valid per small line, so full-mask writebacks are
// safe.
func (c *Cache2P) snoopFlush(at uint64, id isa.LineID) int {
	t := c.find(id.Tile())
	if t == nil {
		return 0
	}
	rows, cols := t.rowDirty, t.colDirty
	if id.Orient == isa.Row {
		rows &= 1 << id.Index()
	} else {
		cols &= 1 << id.Index()
	}
	c.writebackLines(at, t, rows, cols, 0xff)
	t.rowDirty &^= rows
	t.colDirty &^= cols
	return bits.OnesCount8(rows) + bits.OnesCount8(cols)
}

// snoopInvalidate implements snooper: a remote core wrote the masked words
// of id, so flush and drop every valid small line containing one of them
// (S/M→I, line-granular — false sharing). Dirty victims are written back
// first so no modified word is lost.
func (c *Cache2P) snoopInvalidate(at uint64, id isa.LineID, mask uint8) int {
	t := c.find(id.Tile())
	if t == nil {
		return 0
	}
	var rows, cols uint8
	for i := uint(0); i < isa.WordsPerLine; i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		addr := id.WordAddr(i)
		rows |= 1 << isa.RowInTile(addr)
		cols |= 1 << isa.ColInTile(addr)
	}
	rows &= t.rowValid
	cols &= t.colValid
	c.writebackLines(at, t, rows&t.rowDirty, cols&t.colDirty, 0xff)
	t.rowValid &^= rows
	t.rowDirty &^= rows
	t.colValid &^= cols
	t.colDirty &^= cols
	return bits.OnesCount8(rows) + bits.OnesCount8(cols)
}

// Occupancy implements Level: counts valid small lines per orientation.
func (c *Cache2P) Occupancy() (rowLines, colLines int) {
	for w := range c.tiles {
		if c.tags[w] != 0 {
			rowLines += bits.OnesCount8(c.tiles[w].rowValid)
			colLines += bits.OnesCount8(c.tiles[w].colValid)
		}
	}
	return rowLines, colLines
}

// Drain implements Level: flush all dirty small lines below.
func (c *Cache2P) Drain(at uint64) {
	for w := range c.tiles {
		if c.tags[w] != 0 {
			c.flushTile(at, &c.tiles[w])
		}
	}
}
