package core

import (
	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
)

// line is one physically-1-D cache line: 64 bytes stored densely, holding
// either a row or a column of a tile. The Dir(ection) status bit of Fig. 7
// is the Orient field of the LineID; the per-word dirty bits (§IV-C,
// Design 1: "1 extra dirty bit ... for each word in the cache line") are the
// dirty mask.
type line struct {
	id         isa.LineID
	dirty      uint8
	prefetched bool
	way        int32 // fixed index into Cache1P.lines and the controller's tags
	data       [isa.WordsPerLine]uint64
}

// Cache1P is a physically 1-D, set-associative, write-back/write-allocate
// cache. With logical2D=false it is the baseline 1P1L design (Design 0);
// with logical2D=true it is the paper's 1P2L MDACache (Design 1): lines of
// both orientations coexist, indexed by either the Different-Set or the
// Same-Set mapping, with the write-back-based duplicate-coherence policy of
// Fig. 9 and the extra tag-probe latencies of §VI-A.
type Cache1P struct {
	cacheCtl
	logical2D bool
	sameSet   bool // logical2D && Mapping == SameSet, hoisted off the index path

	// lines holds every way, parallel to the controller's tags: the tag of
	// a valid way is lineKey(id)|tagValid.
	lines []line

	pf    *stridePrefetcher
	opred *orientPredictor

	// tileRes counts valid lines per orientation per tile bucket (the CPU's
	// tileBucket). Every line an intersecting walk or a snoop can touch lies
	// in one tile, so an empty bucket ends the walk or snoop before any
	// probe: a host-side snoop filter over the still-broadcast protocol.
	tileRes [2][tileBuckets]int32
}

// NewCache1P builds a physically-1-D cache above the given backend.
func NewCache1P(q *sim.EventQueue, p CacheParams, logical2D bool, below Backend) (*Cache1P, error) {
	c := &Cache1P{logical2D: logical2D, sameSet: logical2D && p.Mapping == SameSet}
	if err := c.init(q, p, below, isa.LineSize); err != nil {
		return nil, err
	}
	c.lineArr = c
	c.lines = make([]line, len(c.tags))
	for w := range c.lines {
		c.lines[w].way = int32(w)
	}
	if p.PrefetchDegree > 0 {
		c.pf = newStridePrefetcher(p.PrefetchDegree)
	}
	if p.PredictOrient && logical2D {
		c.opred = newOrientPredictor()
	}
	return c, nil
}

// setIndex maps a line to its set.
//
// Different-Set (Fig. 8 cache decode): a row line indexes with its ordinary
// line number (tile number × 8 + row-in-tile); a column line symmetrically
// with tile number × 8 + column-in-tile. Rows and columns of one tile spread
// over up to 16 distinct sets while sharing the tile-number tag.
//
// Same-Set: both orientations index with the tile number alone, so all 16
// lines of a tile compete within one set.
func (c *Cache1P) setIndex(id isa.LineID) int {
	num := id.Tile() >> 9
	if !c.sameSet {
		num = num*isa.LinesPerTile + uint64(id.Index())
	}
	return c.setOf(num)
}

// find returns the resident line with the given identity, or nil.
func (c *Cache1P) find(id isa.LineID) *line {
	if w := c.findWay(c.setIndex(id), lineKey(id)); w >= 0 {
		return &c.lines[w]
	}
	return nil
}

// markInvalid drops l from the packed tags and the tile residency counts.
func (c *Cache1P) markInvalid(l *line) {
	c.tags[l.way] = 0
	c.tileRes[l.id.Orient][tileBucket(l.id.Base)]--
}

// tileEmpty reports that no valid line lies in id's tile bucket, so no line
// of id's tile is resident.
func (c *Cache1P) tileEmpty(id isa.LineID) bool {
	b := tileBucket(id.Base)
	return c.tileRes[isa.Row][b] == 0 && c.tileRes[isa.Col][b] == 0
}

// noteDemandHit counts a demand hit on l arriving at at, with its recency,
// SRRIP promotion and prefetch-usefulness accounting.
func (c *Cache1P) noteDemandHit(at uint64, l *line) {
	c.hit(at, l.id)
	c.promote(int(l.way))
	if l.prefetched {
		l.prefetched = false
		c.stats.PrefetchUseful++
	}
}

// intersectingDo invokes fn for every valid line of the opposite
// orientation in id's tile (the up-to-8 lines that cross id).
func (c *Cache1P) intersectingDo(id isa.LineID, fn func(m *line)) {
	if !c.logical2D {
		return
	}
	other := id.Orient.Other()
	if c.tileRes[other][tileBucket(id.Base)] == 0 {
		return // no line of the other orientation in id's tile bucket
	}
	tile := id.Tile()
	for i := uint(0); i < isa.LinesPerTile; i++ {
		var mid isa.LineID
		if other == isa.Row {
			mid = isa.LineID{Base: tile + uint64(i)*isa.LineSize, Orient: isa.Row}
		} else {
			mid = isa.LineID{Base: tile + uint64(i)*isa.WordSize, Orient: isa.Col}
		}
		if m := c.find(mid); m != nil {
			fn(m)
		}
	}
}

// flushLine writes back a modified line and marks it clean (the
// Modified→Clean "read to duplicate" transition of Fig. 9).
func (c *Cache1P) flushLine(at uint64, l *line) {
	if l.dirty != 0 {
		c.writeback(at, l.id, l.dirty, l.data)
		l.dirty = 0
	}
}

// evictDuplicate removes a duplicate copy (the Fig. 9 "write to duplicate"
// transitions: Clean→Invalid directly; Modified→writeback→Invalid).
func (c *Cache1P) evictDuplicate(at uint64, m *line) {
	c.flushLine(at, m)
	c.markInvalid(m)
	c.stats.DuplicateEvictions++
	if c.tr != nil {
		c.traceEv(at, "dup_evict", m.id, 0)
	}
}

// install places line data into the cache, evicting (and writing back) a
// victim if necessary. If the line is already resident — possible when a
// writeback from above landed while a fill was in flight, or vice versa —
// the merge rule is: words in overrideMask (a newer writeback) always take
// the incoming data; other resident dirty words take precedence over the
// (older) incoming data. The merged data is written back into *data so
// callers deliver fresh words upward.
func (c *Cache1P) install(at uint64, id isa.LineID, data *[isa.WordsPerLine]uint64, dirtyMask, overrideMask uint8, prefetched bool) {
	if l := c.find(id); l != nil {
		for i := uint(0); i < isa.WordsPerLine; i++ {
			if l.dirty&(1<<i) != 0 && overrideMask&(1<<i) == 0 {
				data[i] = l.data[i]
			}
		}
		l.data = *data
		l.dirty |= dirtyMask
		c.touch(int(l.way))
		return
	}
	w := c.victim(c.setIndex(id))
	v := &c.lines[w]
	if c.tags[w] != 0 {
		c.stats.Evictions++
		c.markInvalid(v)
		if v.dirty != 0 {
			c.writeback(at, v.id, v.dirty, v.data)
		}
	}
	*v = line{id: id, way: v.way, dirty: dirtyMask, prefetched: prefetched, data: *data}
	c.place(w, lineKey(id))
	c.tileRes[id.Orient][tileBucket(id.Base)]++
}

// flushIntersecting writes back the modified intersecting lines of id's
// tile that hold a word of id. Before a fill issues this is the 2-D MSHR
// ordering of §IV-B: the level below observes the write→read order for the
// overlapping words. At fill arrival it flushes words modified locally
// since the fill was issued, keeping the Fig. 9 invariant that a modified
// word has a single copy.
func (c *Cache1P) flushIntersecting(at uint64, id isa.LineID) {
	c.intersectingDo(id, func(m *line) {
		addr, _ := m.id.Intersection(id)
		moff, _ := m.id.WordOffset(addr)
		if m.dirty&(1<<moff) != 0 {
			c.flushLine(at, m)
			c.stats.DuplicateFlushes++
			if c.tr != nil {
				c.traceEv(at, "dup_flush", m.id, 0)
			}
		}
	})
}

// installFill installs an arrived fill and returns the line's data. The
// timing payload may predate writes that passed the in-flight fill, so the
// line latches the current committed state below instead (see Backend.Peek).
func (c *Cache1P) installFill(at uint64, e *mshrEntry) [isa.WordsPerLine]uint64 {
	c.flushIntersecting(at, e.line)
	data := c.below.Peek(e.line)
	c.install(at, e.line, &data, 0, 0, e.prefetch)
	return data
}

// applyStore lands a store target of the fill of id. The line was installed
// in the same call and nothing in between evicts it: the only evictions are
// applyStoreWord's other-orientation duplicate and the onWrite snoops of
// sibling L1s.
func (c *Cache1P) applyStore(at uint64, id isa.LineID, addr, value uint64) {
	l := c.find(id)
	if l == nil {
		panic("core: store target's line not resident at fill")
	}
	c.applyStoreWord(at, l, addr, value)
}

// chargePort reserves the tag/data port for `probes` sequential tag accesses
// starting at `at`, returning the access start cycle and the extra latency
// beyond the first probe (§VI-A charges each additional probe one TagLat).
// id selects the arbiter under per-set arbitration (shared levels of
// multi-core machines); otherwise the single global port is charged.
func (c *Cache1P) chargePort(at uint64, id isa.LineID, probes int) (start, extraLat uint64) {
	c.countProbes(at, probes)
	start = c.acquirePort(at, c.setIndex(id), uint64(probes))
	return start, uint64(probes-1) * c.p.TagLat
}

// chargePortOffPath reserves the port for probes that overlap miss handling
// (the vector-miss and write duplicate checks): they cost port occupancy —
// delaying later accesses — but §VI-A notes they are off the latency
// critical path, so the miss itself is not delayed by them.
//
// Occupancy model: under the Different-Set mapping the 8 intersecting-line
// probes address 8 distinct sets, i.e. different tag banks, and proceed in
// parallel (2 port cycles: the demand probe plus one banked-probe burst).
// Under the Same-Set mapping all candidates live in one set, so a single
// (wide) set read covers them (1 extra cycle). Statistics still count every
// logical probe.
func (c *Cache1P) chargePortOffPath(at uint64, id isa.LineID, probes int) (start uint64) {
	c.countProbes(at, probes)
	occ := uint64(probes)
	if probes > 1 {
		occ = 2
		if c.p.Mapping == SameSet {
			occ = 1 // all candidates live in one set: one wide read
		}
	}
	return c.acquirePort(at, c.setIndex(id), occ)
}

// countProbes counts the probes beyond the first (§VI-A).
func (c *Cache1P) countProbes(at uint64, probes int) {
	if probes > 1 {
		c.stats.ExtraTagProbes += uint64(probes - 1)
		if c.tr.Enabled(obs.CatCache) {
			c.tr.Instant(at, obs.CatCache, c.p.Name, "dup_probe",
				obs.Fields{Orient: obs.OrientNone, V: uint64(probes - 1)})
		}
	}
}

// checkOrient validates that column traffic only reaches logically-2-D
// caches. A violation — a workload compiled for the wrong hierarchy, or a
// corrupt trace — records a typed sim.ErrInvalidAccess on the event queue
// (halting the run) and returns false; callers drop the request.
func (c *Cache1P) checkOrient(o isa.Orient) bool {
	if !c.logical2D && o == isa.Col {
		c.q.Failf(c.p.Name, "access", sim.ErrInvalidAccess,
			"column access reached logically 1-D cache (compile the workload for a 1-D hierarchy)")
		return false
	}
	return true
}

// CPUAccess implements Level: one processor memory operation.
func (c *Cache1P) CPUAccess(at uint64, op isa.Op, done func(at uint64, value uint64)) {
	if !c.checkOrient(op.Orient) {
		return
	}
	c.countAccess(op)
	if c.pf != nil {
		c.prefetchObserve(at, op)
	}
	if op.Vector {
		if !c.checkCanonical(isa.LineID{Base: op.Addr, Orient: op.Orient}) {
			return
		}
		if op.Kind == isa.Load {
			c.vectorLoad(at, op, done)
		} else {
			c.vectorStore(at, op, done)
		}
		return
	}
	if c.opred != nil {
		// Dynamic preference: once the per-PC stride predictor is
		// confident, it overrides the instruction's static bit.
		c.opred.observe(op.PC, op.Addr)
		op.Orient = c.opred.predict(op.PC, op.Orient)
	}
	if op.Kind == isa.Load {
		c.scalarLoad(at, op, done)
	} else {
		c.scalarStore(at, op, done)
	}
}

func (c *Cache1P) scalarLoad(at uint64, op isa.Op, done func(uint64, uint64)) {
	pref := isa.LineOf(op.Addr, op.Orient)
	if l := c.find(pref); l != nil {
		start, _ := c.chargePort(at, pref, 1)
		c.noteDemandHit(at, l)
		off, _ := pref.WordOffset(op.Addr)
		c.q.ScheduleArg(start+c.hitLat, done, l.data[off])
		return
	}
	if c.logical2D {
		// Check the other orientation; scalar hits ignore alignment
		// (§IV-B(b)). Under Different-Set mapping this is a second,
		// sequential tag access (§IV-C: "incurring additional cycles of
		// latency"); under Same-Set mapping both orientations share the
		// set and are checked by the one simultaneous lookup, for free.
		other := isa.LineOf(op.Addr, op.Orient.Other())
		if m := c.find(other); m != nil {
			probes, extraLat := 2, uint64(0)
			if c.p.Mapping == SameSet {
				probes = 1
			}
			start, extra := c.chargePort(at, other, probes)
			if c.p.Mapping != SameSet {
				extraLat = extra
			}
			c.stats.HitsWrongOrient++
			c.noteDemandHit(at, m)
			off, _ := other.WordOffset(op.Addr)
			c.q.ScheduleArg(start+c.hitLat+extraLat, done, m.data[off])
			return
		}
	}
	probes := 1
	if c.logical2D && c.p.Mapping != SameSet {
		probes = 2
	}
	start, extra := c.chargePort(at, pref, probes)
	c.miss(at, pref)
	off, _ := pref.WordOffset(op.Addr)
	c.requestFill(start+c.p.TagLat+extra, pref, false, fillTarget{kind: tWord, off: uint8(off), done1: done})
}

// applyStoreWord performs the word write into target line l, first evicting
// any duplicate copy in the other orientation ("write to duplicate").
func (c *Cache1P) applyStoreWord(at uint64, l *line, addr, value uint64) {
	if c.logical2D {
		dup := isa.LineOf(addr, l.id.Orient.Other())
		if m := c.find(dup); m != nil {
			c.evictDuplicate(at, m)
		}
	}
	off, ok := l.id.WordOffset(addr)
	if !ok {
		panic("core: store applied to non-containing line")
	}
	l.data[off] = value
	l.dirty |= 1 << off
	c.touch(int(l.way))
	if c.onWrite != nil {
		c.onWrite(at, l.id, 1<<off)
	}
}

func (c *Cache1P) scalarStore(at uint64, op isa.Op, done func(uint64, uint64)) {
	pref := isa.LineOf(op.Addr, op.Orient)
	target := c.find(pref)
	wrongOrient := false
	if target == nil && c.logical2D {
		target = c.find(isa.LineOf(op.Addr, op.Orient.Other()))
		wrongOrient = target != nil
	}
	probes := 1
	if c.logical2D && c.p.Mapping != SameSet {
		probes = 2 // write checks both orientations (§IV-C Design 1)
	}
	start, extra := c.chargePort(at, pref, probes)
	if target != nil {
		if wrongOrient {
			c.stats.HitsWrongOrient++
		}
		c.noteDemandHit(at, target)
		c.applyStoreWord(start, target, op.Addr, op.Value)
		c.q.ScheduleArg(start+c.hitLat+extra, done, 0)
		return
	}
	c.miss(at, pref)
	c.requestFill(start+c.p.TagLat+extra, pref, false,
		fillTarget{kind: tStore, addr: op.Addr, value: op.Value, done1: done})
}

func (c *Cache1P) vectorLoad(at uint64, op isa.Op, done func(uint64, uint64)) {
	id := isa.LineID{Base: op.Addr, Orient: op.Orient}
	if l := c.find(id); l != nil {
		start, _ := c.chargePort(at, id, 1)
		c.noteDemandHit(at, l)
		c.q.ScheduleArg(start+c.hitLat, done, l.data[0])
		return
	}
	probes := 1
	if c.logical2D {
		probes = 1 + isa.WordsPerLine // §VI-A: 8 extra probes on vector miss
	}
	start := c.chargePortOffPath(at, id, probes)
	c.miss(at, id)
	c.requestFill(start+c.p.TagLat, id, false, fillTarget{kind: tWord, off: 0, done1: done})
}

// vectorPayload synthesises the 8 stored words of a vector store from the
// op's scalar Value (word i stores Value+i). The functional-verification
// oracle applies the same rule.
func vectorPayload(v uint64) (data [isa.WordsPerLine]uint64) {
	for i := range data {
		data[i] = v + uint64(i)
	}
	return data
}

func (c *Cache1P) vectorStore(at uint64, op isa.Op, done func(uint64, uint64)) {
	id := isa.LineID{Base: op.Addr, Orient: op.Orient}
	probes := 1
	if c.logical2D {
		probes = 1 + isa.WordsPerLine
	}
	start := c.chargePortOffPath(at, id, probes) // write checks are off the critical path (§VI-A)
	// A full-line store supersedes every intersecting copy.
	c.intersectingDo(id, func(m *line) { c.evictDuplicate(start, m) })
	data := vectorPayload(op.Value)
	if l := c.find(id); l != nil {
		c.noteDemandHit(at, l)
		l.data = data
		l.dirty = 0xff
	} else {
		// Write-allocate without fetch: the store covers the whole line.
		c.miss(at, id)
		c.install(start, id, &data, 0xff, 0xff, false)
	}
	if c.onWrite != nil {
		c.onWrite(start, id, 0xff)
	}
	c.q.ScheduleArg(start+c.hitLat, done, 0)
}

// Fill implements Backend for the level above: serve a full line.
func (c *Cache1P) Fill(at uint64, id isa.LineID, done func(uint64, *[isa.WordsPerLine]uint64)) {
	if !c.checkOrient(id.Orient) || !c.checkCanonical(id) {
		return
	}
	c.countAccess(isa.Op{Orient: id.Orient, Vector: true})
	if l := c.find(id); l != nil {
		start, _ := c.chargePort(at, id, 1)
		c.noteDemandHit(at, l)
		// ScheduleData snapshots the line at schedule time, matching the
		// by-value capture this path used before the encoding change.
		c.q.ScheduleData(start+c.hitLat, done, &l.data)
		return
	}
	probes := 1
	if c.logical2D {
		probes = 1 + isa.WordsPerLine
	}
	start := c.chargePortOffPath(at, id, probes)
	c.miss(at, id)
	c.requestFill(start+c.p.TagLat, id, false, fillTarget{kind: tLine, done8: done})
}

// Writeback implements Backend for the level above: absorb a dirty line.
// It is treated as a write for the Fig. 9 duplicate policy: masked (dirty)
// words evict their other-orientation copies.
func (c *Cache1P) Writeback(at uint64, id isa.LineID, mask uint8, data [isa.WordsPerLine]uint64) {
	if !c.checkOrient(id.Orient) || !c.checkCanonical(id) {
		return
	}
	c.stats.WritebacksIn++
	probes := 1
	if c.logical2D {
		probes = 1 + isa.WordsPerLine
	}
	start, _ := c.chargePort(at, id, probes)
	c.intersectingDo(id, func(m *line) {
		addr, _ := m.id.Intersection(id)
		ioff, _ := id.WordOffset(addr)
		if mask&(1<<ioff) != 0 {
			c.evictDuplicate(start, m)
		}
	})
	c.install(start, id, &data, mask, mask, false)
}

// prefetchObserve trains the stride prefetcher and issues row-line
// prefetches (Design 0 baseline).
func (c *Cache1P) prefetchObserve(at uint64, op isa.Op) {
	for _, addr := range c.pf.observe(op) {
		id := isa.LineOf(addr, isa.Row)
		if c.find(id) != nil || c.mshr.lookup(id) != nil {
			continue
		}
		c.stats.PrefetchIssued++
		if c.tr != nil {
			c.traceEv(at, "prefetch", id, 0)
		}
		c.requestFill(at, id, true, fillTarget{})
	}
}

// Peek implements Backend's synchronous functional-data path: the freshest
// value of each word of the line, overlaying this level's dirty words on
// everything below.
func (c *Cache1P) Peek(id isa.LineID) [isa.WordsPerLine]uint64 {
	return c.peekDirty(id, c.below.Peek(id))
}

// peekDirty implements snooper: overlay this cache's dirty words of id onto
// data, both from the same-identity line and from intersecting lines of the
// other orientation.
func (c *Cache1P) peekDirty(id isa.LineID, data [isa.WordsPerLine]uint64) [isa.WordsPerLine]uint64 {
	if c.tileEmpty(id) {
		return data
	}
	if l := c.find(id); l != nil {
		for i := uint(0); i < isa.WordsPerLine; i++ {
			if l.dirty&(1<<i) != 0 {
				data[i] = l.data[i]
			}
		}
	}
	c.intersectingDo(id, func(m *line) {
		addr, _ := m.id.Intersection(id)
		moff, _ := m.id.WordOffset(addr)
		if m.dirty&(1<<moff) != 0 {
			ioff, _ := id.WordOffset(addr)
			data[ioff] = m.data[moff]
		}
	})
	return data
}

// invalidateLine flushes a line's dirty words below and drops it (the snoop
// S/M→Invalid transition).
func (c *Cache1P) invalidateLine(at uint64, l *line) {
	c.flushLine(at, l)
	c.markInvalid(l)
}

// snoopFlush implements snooper: a remote core is reading id, so write back
// every dirty word of it held here — the same-identity line plus any
// intersecting line of the other orientation — leaving copies resident but
// clean (M→S downgrade).
func (c *Cache1P) snoopFlush(at uint64, id isa.LineID) int {
	if c.tileEmpty(id) {
		return 0
	}
	n := 0
	if l := c.find(id); l != nil && l.dirty != 0 {
		c.flushLine(at, l)
		n++
	}
	c.intersectingDo(id, func(m *line) {
		if addr, ok := m.id.Intersection(id); ok {
			if off, ok := m.id.WordOffset(addr); ok && m.dirty&(1<<off) != 0 {
				c.flushLine(at, m)
				n++
			}
		}
	})
	return n
}

// snoopInvalidate implements snooper: a remote core wrote the masked words
// of id, so flush and drop every local copy containing one of them. The
// same-identity copy always contains a written word; in a logically-2-D L1
// each written word may additionally live in an other-orientation line.
// Invalidation is line-granular (false sharing).
func (c *Cache1P) snoopInvalidate(at uint64, id isa.LineID, mask uint8) int {
	if c.tileEmpty(id) {
		return 0
	}
	n := 0
	if l := c.find(id); l != nil {
		c.invalidateLine(at, l)
		n++
	}
	if c.logical2D && c.tileRes[id.Orient.Other()][tileBucket(id.Base)] > 0 {
		for i := uint(0); i < isa.WordsPerLine; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			other := isa.LineOf(id.WordAddr(i), id.Orient.Other())
			if m := c.find(other); m != nil {
				c.invalidateLine(at, m)
				n++
			}
		}
	}
	return n
}

// Occupancy implements Level.
func (c *Cache1P) Occupancy() (rowLines, colLines int) {
	for i := range c.lines {
		if c.tags[i] == 0 {
			continue
		}
		if c.lines[i].id.Orient == isa.Row {
			rowLines++
		} else {
			colLines++
		}
	}
	return rowLines, colLines
}

// Drain implements Level: flush all dirty lines below.
func (c *Cache1P) Drain(at uint64) {
	for i := range c.lines {
		if l := &c.lines[i]; c.tags[i] != 0 && l.dirty != 0 {
			c.flushLine(at, l)
		}
	}
}
