package core

import (
	"math/bits"

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
	valid      bool
	dirty      uint8
	prefetched bool
	way        int32 // fixed index into Cache1P.lines and Cache1P.tags
	lastUse    uint64
	rrpv       uint8 // SRRIP re-reference counter
	data       [isa.WordsPerLine]uint64
}

// Cache1P is a physically 1-D, set-associative, write-back/write-allocate
// cache. With logical2D=false it is the baseline 1P1L design (Design 0);
// with logical2D=true it is the paper's 1P2L MDACache (Design 1): lines of
// both orientations coexist, indexed by either the Different-Set or the
// Same-Set mapping, with the write-back-based duplicate-coherence policy of
// Fig. 9 and the extra tag-probe latencies of §VI-A.
type Cache1P struct {
	q         *sim.EventQueue
	p         CacheParams
	logical2D bool
	below     Backend

	nsets   int
	setMask uint64 // nsets-1 when nsets is a power of two, else 0 (modulo path)
	sameSet bool   // logical2D && Mapping == SameSet, hoisted off the index path
	hitLat  uint64 // HitLatency(), computed once

	// lines holds every way, set s at [s*Assoc, (s+1)*Assoc). tags runs
	// parallel to it: lineKey(id)|tagValid while the way is valid, else 0,
	// so find scans one packed word per way instead of the ways themselves.
	lines []line
	tags  []uint64

	mshr *mshrFile
	port sim.Resource
	// setArb, when non-nil (EnableSetArbitration), replaces the single
	// global port with one arbiter per set: accesses to different sets
	// proceed in parallel; same-set accesses contend FIFO (DESIGN §11).
	setArb []sim.Resource
	pf     *stridePrefetcher
	opred  *orientPredictor
	rng    *sim.RNG // random-replacement source

	// onWrite, when non-nil, observes every store applied to this cache
	// (line identity + mask of written words) — the snoop hub's remote-write
	// invalidation hook in multi-core machines.
	onWrite func(at uint64, id isa.LineID, mask uint8)

	// tileRes counts valid lines per orientation per tile bucket (the CPU's
	// tileBucket). Every line an intersecting walk or a snoop can touch lies
	// in one tile, so an empty bucket ends the walk or snoop before any
	// probe: a host-side snoop filter over the still-broadcast protocol.
	tileRes [2][tileBuckets]int32

	useCounter uint64
	stats      LevelStats

	tr      *obs.Tracer    // nil = tracing off (one nil check per event site)
	fillLat *obs.Histogram // issue→arrival latency of fills (registry-only)
}

// Instrument publishes the level's counters in the registry (aliasing the
// LevelStats storage) and attaches the tracer. Called by Build; caches
// constructed directly (unit tests) run uninstrumented.
func (c *Cache1P) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	c.tr = tr
	registerLevelStats(reg, &c.stats)
	c.fillLat = reg.Histogram(lowerName(c.p.Name) + ".fill_latency")
}

// traceEv emits a cache-category instant event. Callers guard with
// `if c.tr != nil` so the off path costs a single branch.
func (c *Cache1P) traceEv(at uint64, event string, id isa.LineID, v uint64) {
	if c.tr.Enabled(obs.CatCache) {
		c.tr.Instant(at, obs.CatCache, c.p.Name, event,
			obs.Fields{Addr: id.Base, Orient: int8(id.Orient), V: v})
	}
}

// traceMSHR emits an MSHR-category instant event carrying the in-flight depth.
func (c *Cache1P) traceMSHR(at uint64, event string, id isa.LineID) {
	if c.tr.Enabled(obs.CatMSHR) {
		c.tr.Instant(at, obs.CatMSHR, c.p.Name, event,
			obs.Fields{Addr: id.Base, Orient: int8(id.Orient), V: uint64(c.mshr.inFlight())})
	}
}

// NewCache1P builds a physically-1-D cache above the given backend.
func NewCache1P(q *sim.EventQueue, p CacheParams, logical2D bool, below Backend) (*Cache1P, error) {
	if err := p.Validate(isa.LineSize); err != nil {
		return nil, err
	}
	nsets := p.SizeBytes / (isa.LineSize * p.Assoc)
	c := &Cache1P{
		q: q, p: p, logical2D: logical2D, below: below,
		nsets:   nsets,
		sameSet: logical2D && p.Mapping == SameSet,
		hitLat:  p.HitLatency(),
		stats:   LevelStats{Name: p.Name},
	}
	if nsets&(nsets-1) == 0 {
		c.setMask = uint64(nsets - 1)
	}
	c.mshr = newMSHRFile(p.MSHRs, func(e *mshrEntry) {
		e.onFill = func(at uint64, data *[isa.WordsPerLine]uint64) { c.fillArrived(at, e, data) }
	})
	c.lines = make([]line, nsets*p.Assoc)
	c.tags = make([]uint64, nsets*p.Assoc)
	for w := range c.lines {
		c.lines[w].way = int32(w)
	}
	if p.PrefetchDegree > 0 {
		c.pf = newStridePrefetcher(p.PrefetchDegree)
	}
	if p.PredictOrient && logical2D {
		c.opred = newOrientPredictor()
	}
	if p.Repl == ReplRandom {
		c.rng = sim.NewRNG(0x5EED)
	}
	return c, nil
}

// Stats implements Level.
func (c *Cache1P) Stats() *LevelStats { return &c.stats }

// EnableSetArbitration switches the cache from one global port to one
// arbiter per set — the FlexiCAS-style per-set meta state used at the
// shared levels of multi-core machines, so orientation duplicates and tile
// fills from different cores contend per set instead of serializing
// globally. Call before simulation starts.
func (c *Cache1P) EnableSetArbitration() {
	c.setArb = make([]sim.Resource, c.nsets)
}

// acquirePort reserves occ cycles on the arbiter covering id (the per-set
// arbiter when enabled, else the global port), counting set conflicts.
func (c *Cache1P) acquirePort(at uint64, id isa.LineID, occ uint64) (start uint64) {
	if c.setArb == nil {
		return c.port.Acquire(at, occ)
	}
	start = c.setArb[c.setIndex(id)].Acquire(at, occ)
	if start > at {
		c.stats.SetConflicts++
		c.stats.SetArbDelay += start - at
	}
	return start
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
	if c.setMask != 0 {
		return int(num & c.setMask)
	}
	// Scaled configurations can produce a non-power-of-two set count.
	return int(num % uint64(c.nsets))
}

// tagValid is the valid bit of a packed tag: lineKey uses bit 0 of the
// word-aligned base for the orientation, leaving bit 1 free.
const tagValid = 2

// find returns the resident line with the given identity, or nil.
func (c *Cache1P) find(id isa.LineID) *line {
	base := c.setIndex(id) * c.p.Assoc
	key := lineKey(id) | tagValid
	for w, t := range c.tags[base : base+c.p.Assoc] {
		if t == key {
			return &c.lines[base+w]
		}
	}
	return nil
}

// markValid makes l (holding its new identity) resident in the packed tags
// and the tile residency counts.
func (c *Cache1P) markValid(l *line) {
	l.valid = true
	c.tags[l.way] = lineKey(l.id) | tagValid
	c.tileRes[l.id.Orient][tileBucket(l.id.Base)]++
}

// markInvalid drops l from the packed tags and the tile residency counts.
func (c *Cache1P) markInvalid(l *line) {
	l.valid = false
	c.tags[l.way] = 0
	c.tileRes[l.id.Orient][tileBucket(l.id.Base)]--
}

// tileEmpty reports that no valid line lies in id's tile bucket, so no line
// of id's tile is resident.
func (c *Cache1P) tileEmpty(id isa.LineID) bool {
	b := tileBucket(id.Base)
	return c.tileRes[isa.Row][b] == 0 && c.tileRes[isa.Col][b] == 0
}

func (c *Cache1P) touch(l *line) {
	c.useCounter++
	l.lastUse = c.useCounter
}

// noteDemandHit updates recency, SRRIP promotion and prefetch-usefulness
// accounting on a demand hit.
func (c *Cache1P) noteDemandHit(l *line) {
	c.touch(l)
	l.rrpv = 0 // SRRIP promotion on proven reuse
	if l.prefetched {
		l.prefetched = false
		c.stats.PrefetchUseful++
	}
	if c.tr != nil {
		c.traceEv(c.q.Now(), "hit", l.id, 0)
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

// writebackLine sends a line's dirty words below (full data, dirty mask).
// Traffic is accounted at dirty-word granularity — the per-word dirty bits
// of §IV-C exist precisely to shrink false-sharing writeback bandwidth.
func (c *Cache1P) writebackLine(at uint64, l *line) {
	c.stats.Writebacks++
	c.stats.BytesToBelow += uint64(bits.OnesCount8(l.dirty)) * isa.WordSize
	if c.tr != nil {
		c.traceEv(at, "writeback", l.id, uint64(l.dirty))
	}
	c.below.Writeback(at, l.id, l.dirty, l.data)
}

// flushLine writes back a modified line and marks it clean (the
// Modified→Clean "read to duplicate" transition of Fig. 9).
func (c *Cache1P) flushLine(at uint64, l *line) {
	if l.dirty != 0 {
		c.writebackLine(at, l)
		l.dirty = 0
	}
}

// evictDuplicate removes a duplicate copy (the Fig. 9 "write to duplicate"
// transitions: Clean→Invalid directly; Modified→writeback→Invalid).
func (c *Cache1P) evictDuplicate(at uint64, m *line) {
	if c.p.BreakDupCoherence {
		return // testing-only coherence mutation, see CacheParams
	}
	c.flushLine(at, m)
	c.markInvalid(m)
	c.stats.DuplicateEvictions++
	if c.tr != nil {
		c.traceEv(at, "dup_evict", m.id, 0)
	}
}

// victim picks the replacement way in a set: an invalid way if one exists,
// otherwise the configured policy's choice.
func (c *Cache1P) victim(set []line) *line {
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
	}
	switch c.p.Repl {
	case ReplRandom:
		return &set[c.rng.Intn(len(set))]
	case ReplSRRIP:
		for {
			for i := range set {
				if set[i].rrpv >= srripMax {
					return &set[i]
				}
			}
			for i := range set {
				set[i].rrpv++
			}
		}
	default: // LRU
		v := &set[0]
		for i := range set {
			if set[i].lastUse < v.lastUse {
				v = &set[i]
			}
		}
		return v
	}
}

// install places line data into the cache, evicting (and writing back) a
// victim if necessary. If the line is already resident — possible when a
// writeback from above landed while a fill was in flight, or vice versa —
// the merge rule is: words in overrideMask (a newer writeback) always take
// the incoming data; other resident dirty words take precedence over the
// (older) incoming data. The merged data is written back into *data so
// callers deliver fresh words upward.
func (c *Cache1P) install(at uint64, id isa.LineID, data *[isa.WordsPerLine]uint64, dirtyMask, overrideMask uint8, prefetched bool) *line {
	if l := c.find(id); l != nil {
		for i := uint(0); i < isa.WordsPerLine; i++ {
			if l.dirty&(1<<i) != 0 && overrideMask&(1<<i) == 0 {
				data[i] = l.data[i]
			}
		}
		l.data = *data
		l.dirty |= dirtyMask
		c.touch(l)
		return l
	}
	base := c.setIndex(id) * c.p.Assoc
	v := c.victim(c.lines[base : base+c.p.Assoc])
	if v.valid {
		c.stats.Evictions++
		c.markInvalid(v)
		if v.dirty != 0 {
			c.writebackLine(at, v)
		}
	}
	*v = line{id: id, way: v.way, dirty: dirtyMask, prefetched: prefetched, data: *data}
	c.markValid(v)
	c.touch(v)
	v.rrpv = srripInsertRRPV
	return v
}

// requestFill starts (or joins) a miss for id. t describes the consumer to
// wake with the installed line's data (tNone for prefetches).
func (c *Cache1P) requestFill(at uint64, id isa.LineID, prefetch bool, t fillTarget) {
	if e := c.mshr.lookup(id); e != nil {
		c.stats.MSHRCoalesced++
		if c.tr != nil {
			c.traceMSHR(at, "mshr_coalesce", id)
		}
		if e.prefetch && !prefetch {
			// A demand miss caught an in-flight prefetch: partial coverage.
			c.stats.PrefetchUseful++
			e.prefetch = false
		}
		if t.kind != tNone {
			e.targets = append(e.targets, t)
		}
		return
	}
	if c.mshr.full() {
		if prefetch {
			return // drop prefetches under MSHR pressure
		}
		c.stats.MSHRStalls++
		if c.tr != nil {
			c.traceMSHR(at, "mshr_stall", id)
		}
		c.mshr.stall(id, t)
		return
	}
	e := c.mshr.allocate(id, prefetch)
	e.born = at
	if c.tr != nil {
		c.traceMSHR(at, "mshr_alloc", id)
	}
	if t.kind != tNone {
		e.targets = append(e.targets, t)
	}
	// 2-D MSHR ordering (§IV-B): modified intersecting lines are written
	// back *before* the fill is issued, so the level below observes the
	// write→read order for the overlapping words.
	c.intersectingDo(id, func(m *line) {
		if addr, ok := m.id.Intersection(id); ok {
			if off, ok := m.id.WordOffset(addr); ok && m.dirty&(1<<off) != 0 {
				c.flushLine(at, m)
				c.stats.DuplicateFlushes++
				if c.tr != nil {
					c.traceEv(at, "dup_flush", m.id, 0)
				}
			}
		}
	})
	c.stats.FillsIssued++
	c.below.Fill(at, id, e.onFill)
}

// fillArrived completes a miss: flush any words modified locally since the
// fill was issued (keeping the Fig. 9 invariant that a modified word has a
// single copy), latch the freshest committed data below, install, and wake
// the waiting targets.
func (c *Cache1P) fillArrived(at uint64, e *mshrEntry, _ *[isa.WordsPerLine]uint64) {
	id := e.line
	c.stats.BytesFromBelow += isa.LineSize
	c.fillLat.Observe(at - e.born)
	if c.tr.Enabled(obs.CatCache) {
		c.tr.Span(e.born, at-e.born, obs.CatCache, c.p.Name, "fill",
			obs.Fields{Addr: id.Base, Orient: int8(id.Orient)})
	}
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
	// The timing payload may predate writes that passed the in-flight fill;
	// latch the current committed state below instead (see Backend.Peek).
	data := c.below.Peek(id)
	c.install(at, id, &data, 0, 0, e.prefetch)
	deliverAt := at + c.p.DataLat
	w, stalled := c.mshr.complete(e)
	if c.tr != nil {
		c.traceMSHR(at, "mshr_retire", id)
	}
	for i := range e.targets {
		c.dispatchTarget(at, deliverAt, id, &e.targets[i], &data)
	}
	if stalled {
		c.requestFill(at, w.line, false, w.target)
	}
	c.mshr.release(e)
}

// dispatchTarget wakes one fill consumer, mirroring exactly what the
// pre-encoding closures did: word and line deliveries snapshot the merged
// data now and fire at deliverAt; store targets apply (or refetch) now with
// deliverAt timing.
func (c *Cache1P) dispatchTarget(at, deliverAt uint64, id isa.LineID, t *fillTarget, data *[isa.WordsPerLine]uint64) {
	switch t.kind {
	case tWord:
		c.q.ScheduleArg(deliverAt, t.done1, data[t.off])
	case tLine:
		c.q.ScheduleData(deliverAt, t.done8, data)
	case tStore:
		l := c.find(id)
		if l == nil {
			// The just-installed line was evicted within the same cycle by
			// a conflicting waiter; re-install via a fresh fill.
			c.requestFill(deliverAt, id, false, fillTarget{
				kind: tStoreFinal, addr: t.addr, value: t.value, done1: t.done1,
			})
			return
		}
		c.applyStoreWord(deliverAt, l, t.addr, t.value)
		c.q.ScheduleArg(deliverAt, t.done1, 0)
	case tStoreFinal:
		if l := c.find(id); l != nil {
			c.applyStoreWord(deliverAt, l, t.addr, t.value)
		}
		c.q.ScheduleArg(deliverAt, t.done1, 0)
	}
}

// chargePort reserves the tag/data port for `probes` sequential tag accesses
// starting at `at`, returning the access start cycle and the extra latency
// beyond the first probe (§VI-A charges each additional probe one TagLat).
// id selects the arbiter under per-set arbitration (shared levels of
// multi-core machines); otherwise the single global port is charged.
func (c *Cache1P) chargePort(at uint64, id isa.LineID, probes int) (start, extraLat uint64) {
	if probes > 1 {
		c.stats.ExtraTagProbes += uint64(probes - 1)
		if c.tr.Enabled(obs.CatCache) {
			c.tr.Instant(at, obs.CatCache, c.p.Name, "dup_probe",
				obs.Fields{Orient: obs.OrientNone, V: uint64(probes - 1)})
		}
	}
	start = c.acquirePort(at, id, uint64(probes))
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
	occ := uint64(probes)
	if probes > 1 {
		c.stats.ExtraTagProbes += uint64(probes - 1)
		if c.tr.Enabled(obs.CatCache) {
			c.tr.Instant(at, obs.CatCache, c.p.Name, "dup_probe",
				obs.Fields{Orient: obs.OrientNone, V: uint64(probes - 1)})
		}
		occ = 2
		if c.p.Mapping == SameSet {
			occ = 1 // all candidates live in one set: one wide read
		}
	}
	return c.acquirePort(at, id, occ)
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

// checkCanonical validates a vector line identity. Non-canonical lines come
// from mis-compiled or corrupt traces; they fail the run with a typed error
// rather than panicking.
func checkCanonical(q *sim.EventQueue, name string, id isa.LineID) bool {
	if !id.IsCanonical() {
		q.Failf(name, "access", sim.ErrInvalidAccess,
			"non-canonical line %v (mis-compiled or corrupt trace)", id)
		return false
	}
	return true
}

// MSHRInFlight implements Level.
func (c *Cache1P) MSHRInFlight() int { return c.mshr.inFlight() }

// CPUAccess implements Level: one processor memory operation.
func (c *Cache1P) CPUAccess(at uint64, op isa.Op, done func(at uint64, value uint64)) {
	if !c.checkOrient(op.Orient) {
		return
	}
	c.stats.Accesses++
	c.stats.ByOrient[op.Orient]++
	if op.Vector {
		c.stats.VectorAccesses++
	} else {
		c.stats.ScalarAccesses++
	}
	if c.pf != nil {
		c.prefetchObserve(at, op)
	}
	if op.Vector {
		if !checkCanonical(c.q, c.p.Name, isa.LineID{Base: op.Addr, Orient: op.Orient}) {
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
		c.stats.Hits++
		c.noteDemandHit(l)
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
			c.stats.Hits++
			c.stats.HitsWrongOrient++
			c.noteDemandHit(m)
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
	c.stats.Misses++
	if c.tr != nil {
		c.traceEv(at, "miss", pref, 0)
	}
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
	c.touch(l)
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
		c.stats.Hits++
		if wrongOrient {
			c.stats.HitsWrongOrient++
		}
		c.noteDemandHit(target)
		c.applyStoreWord(start, target, op.Addr, op.Value)
		c.q.ScheduleArg(start+c.hitLat+extra, done, 0)
		return
	}
	c.stats.Misses++
	if c.tr != nil {
		c.traceEv(at, "miss", pref, 0)
	}
	c.requestFill(start+c.p.TagLat+extra, pref, false,
		fillTarget{kind: tStore, addr: op.Addr, value: op.Value, done1: done})
}

func (c *Cache1P) vectorLoad(at uint64, op isa.Op, done func(uint64, uint64)) {
	id := isa.LineID{Base: op.Addr, Orient: op.Orient}
	if l := c.find(id); l != nil {
		start, _ := c.chargePort(at, id, 1)
		c.stats.Hits++
		c.noteDemandHit(l)
		c.q.ScheduleArg(start+c.hitLat, done, l.data[0])
		return
	}
	probes := 1
	if c.logical2D {
		probes = 1 + isa.WordsPerLine // §VI-A: 8 extra probes on vector miss
	}
	start := c.chargePortOffPath(at, id, probes)
	c.stats.Misses++
	if c.tr != nil {
		c.traceEv(at, "miss", id, 0)
	}
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
		c.stats.Hits++
		c.noteDemandHit(l)
		l.data = data
		l.dirty = 0xff
	} else {
		// Write-allocate without fetch: the store covers the whole line.
		c.stats.Misses++
		if c.tr != nil {
			c.traceEv(at, "miss", id, 0)
		}
		c.install(start, id, &data, 0xff, 0xff, false)
	}
	if c.onWrite != nil {
		c.onWrite(start, id, 0xff)
	}
	c.q.ScheduleArg(start+c.hitLat, done, 0)
}

// Fill implements Backend for the level above: serve a full line.
func (c *Cache1P) Fill(at uint64, id isa.LineID, done func(uint64, *[isa.WordsPerLine]uint64)) {
	if !c.checkOrient(id.Orient) || !checkCanonical(c.q, c.p.Name, id) {
		return
	}
	c.stats.Accesses++
	c.stats.VectorAccesses++
	c.stats.ByOrient[id.Orient]++
	if l := c.find(id); l != nil {
		start, _ := c.chargePort(at, id, 1)
		c.stats.Hits++
		c.noteDemandHit(l)
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
	c.stats.Misses++
	if c.tr != nil {
		c.traceEv(at, "miss", id, 0)
	}
	c.requestFill(start+c.p.TagLat, id, false, fillTarget{kind: tLine, done8: done})
}

// Writeback implements Backend for the level above: absorb a dirty line.
// It is treated as a write for the Fig. 9 duplicate policy: masked (dirty)
// words evict their other-orientation copies.
func (c *Cache1P) Writeback(at uint64, id isa.LineID, mask uint8, data [isa.WordsPerLine]uint64) {
	if !c.checkOrient(id.Orient) || !checkCanonical(c.q, c.p.Name, id) {
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
	data := c.below.Peek(id)
	c.peekDirty(id, &data)
	return data
}

// peekDirty implements snooper: overlay this cache's dirty words of id onto
// data, both from the same-identity line and from intersecting lines of the
// other orientation.
func (c *Cache1P) peekDirty(id isa.LineID, data *[isa.WordsPerLine]uint64) {
	if c.tileEmpty(id) {
		return
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
		if !c.lines[i].valid {
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
		if l := &c.lines[i]; l.valid && l.dirty != 0 {
			c.flushLine(at, l)
		}
	}
}
