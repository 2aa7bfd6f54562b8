package core

import (
	"math/bits"

	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
)

// cacheCtl is the controller half of a cache level, shared by both data
// arrays: the line array (Cache1P, Designs 0 and 1: 1-D lines with an
// orientation bit) and the tile array (Cache2P, Designs 2 and 3: 512-byte
// tiles with row/column valid bits). The designs differ only in their
// arrays (§IV-C, Fig. 7); the ports, MSHR ordering, miss issue and retire,
// replacement and tags around them are the same, and live here once. Each
// array embeds a cacheCtl by value and keeps what a block holds, how a fill
// installs and a store lands in it, and its snoops.
//
// The controller calls back into its array through exactly one of lineArr
// and tileArr, so every call on the access path is static.
type cacheCtl struct {
	q     *sim.EventQueue
	p     CacheParams
	below Backend

	nsets       int
	setMask     uint64 // nsets-1 when nsets is a power of two, else 0 (modulo path)
	hitLat      uint64 // HitLatency(), computed once
	fillDeliver uint64 // fill arrival → target delivery (the array's data latency)

	// tags and meta run parallel to the array's ways, set s at
	// [s*Assoc, (s+1)*Assoc). A tag is the block's key|tagValid while the
	// way is valid, else 0, so find scans one packed word per way. Packed
	// tags are the controller's only tag form; a profile of the switch to
	// them showed Cache1P.find fall from 0.57 s to 0.18 s.
	tags []uint64
	meta []wayMeta

	mshr *mshrFile
	port sim.Resource
	// setArb, when non-nil (EnableSetArbitration), replaces the single
	// global port with one arbiter per set: accesses to different sets
	// proceed in parallel; same-set accesses contend FIFO (DESIGN §11).
	setArb []sim.Resource
	rng    *sim.RNG // random-replacement source

	// onWrite, when non-nil, observes every store applied to this cache
	// (line identity + mask of written words) — the snoop hub's remote-write
	// invalidation hook in multi-core machines.
	onWrite func(at uint64, id isa.LineID, mask uint8)

	lineArr *Cache1P // the array this controller serves: exactly one is set
	tileArr *Cache2P

	useCounter uint64
	stats      LevelStats

	tr      *obs.Tracer    // nil = tracing off (one nil check per event site)
	fillLat *obs.Histogram // issue→arrival latency of fills (registry-only)
}

// wayMeta is one way's replacement state.
type wayMeta struct {
	lastUse uint64
	rrpv    uint8 // SRRIP re-reference counter
}

// tagValid is the valid bit of a packed tag. Block keys leave bit 1 free:
// lineKey uses bit 0 of the word-aligned base for the orientation, and a
// tile base is 512-byte aligned.
const tagValid = 2

// init sizes the controller for blocks of blockBytes (a line or a tile).
func (c *cacheCtl) init(q *sim.EventQueue, p CacheParams, below Backend, blockBytes int) error {
	if err := p.Validate(blockBytes); err != nil {
		return err
	}
	nsets := p.SizeBytes / (blockBytes * p.Assoc)
	*c = cacheCtl{
		q: q, p: p, below: below,
		nsets:       nsets,
		hitLat:      p.HitLatency(),
		fillDeliver: p.DataLat,
		tags:        make([]uint64, nsets*p.Assoc),
		meta:        make([]wayMeta, nsets*p.Assoc),
		stats:       LevelStats{Name: p.Name},
	}
	if nsets&(nsets-1) == 0 {
		c.setMask = uint64(nsets - 1)
	}
	c.mshr = newMSHRFile(p.MSHRs, func(e *mshrEntry) {
		e.onFill = func(at uint64, _ *[isa.WordsPerLine]uint64) { c.fillArrived(at, e) }
	})
	if p.Repl == ReplRandom {
		c.rng = sim.NewRNG(0x5EED)
	}
	return nil
}

// ctl gives Build the controller of either array.
func (c *cacheCtl) ctl() *cacheCtl { return c }

// Instrument publishes the level's counters in the registry (aliasing the
// LevelStats storage) and attaches the tracer. Called by Build; caches
// constructed directly (unit tests) run uninstrumented.
func (c *cacheCtl) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	c.tr = tr
	registerLevelStats(reg, &c.stats)
	c.fillLat = reg.Histogram(lowerName(c.p.Name) + ".fill_latency")
}

// traceEv emits a cache-category instant event. Callers guard with
// `if c.tr != nil` so the off path costs a single branch.
func (c *cacheCtl) traceEv(at uint64, event string, id isa.LineID, v uint64) {
	if c.tr.Enabled(obs.CatCache) {
		c.tr.Instant(at, obs.CatCache, c.p.Name, event,
			obs.Fields{Addr: id.Base, Orient: int8(id.Orient), V: v})
	}
}

// traceMSHR emits an MSHR-category instant event carrying the in-flight depth.
func (c *cacheCtl) traceMSHR(at uint64, event string, id isa.LineID) {
	if c.tr.Enabled(obs.CatMSHR) {
		c.tr.Instant(at, obs.CatMSHR, c.p.Name, event,
			obs.Fields{Addr: id.Base, Orient: int8(id.Orient), V: uint64(c.mshr.inFlight())})
	}
}

// Stats implements Level.
func (c *cacheCtl) Stats() *LevelStats { return &c.stats }

// MSHRInFlight implements Level.
func (c *cacheCtl) MSHRInFlight() int { return c.mshr.inFlight() }

// EnableSetArbitration switches the cache from one global port to one
// arbiter per set — the FlexiCAS-style per-set meta state used at the
// shared levels of multi-core machines, so orientation duplicates and tile
// fills from different cores contend per set instead of serializing
// globally. Call before simulation starts.
func (c *cacheCtl) EnableSetArbitration() {
	c.setArb = make([]sim.Resource, c.nsets)
}

// acquirePort reserves occ cycles on the arbiter covering set (the per-set
// arbiter when enabled, else the global port), counting set conflicts.
func (c *cacheCtl) acquirePort(at uint64, set int, occ uint64) (start uint64) {
	if c.setArb == nil {
		return c.port.Acquire(at, occ)
	}
	start = c.setArb[set].Acquire(at, occ)
	if start > at {
		c.stats.SetConflicts++
		c.stats.SetArbDelay += start - at
	}
	return start
}

// setOf maps a block number to its set.
func (c *cacheCtl) setOf(num uint64) int {
	if c.setMask != 0 {
		return int(num & c.setMask)
	}
	// Scaled configurations can produce a non-power-of-two set count.
	return int(num % uint64(c.nsets))
}

// findWay returns the way of set holding key, or -1.
func (c *cacheCtl) findWay(set int, key uint64) int {
	base := set * c.p.Assoc
	key |= tagValid
	for w, t := range c.tags[base : base+c.p.Assoc] {
		if t == key {
			return base + w
		}
	}
	return -1
}

func (c *cacheCtl) touch(w int) {
	c.useCounter++
	c.meta[w].lastUse = c.useCounter
}

// promote marks a demand hit on way w: recency plus SRRIP promotion.
func (c *cacheCtl) promote(w int) {
	c.touch(w)
	c.meta[w].rrpv = 0
}

// place makes way w hold key as a newly inserted block.
func (c *cacheCtl) place(w int, key uint64) {
	c.tags[w] = key | tagValid
	c.touch(w)
	c.meta[w].rrpv = srripInsertRRPV
}

// victim picks the replacement way in a set: an invalid way if one exists,
// otherwise the configured policy's choice.
func (c *cacheCtl) victim(set int) int {
	base := set * c.p.Assoc
	tags, meta := c.tags[base:base+c.p.Assoc], c.meta[base:base+c.p.Assoc]
	for i, t := range tags {
		if t == 0 {
			return base + i
		}
	}
	switch c.p.Repl {
	case ReplRandom:
		return base + c.rng.Intn(len(meta))
	case ReplSRRIP:
		for {
			for i := range meta {
				if meta[i].rrpv >= srripMax {
					return base + i
				}
			}
			for i := range meta {
				meta[i].rrpv++
			}
		}
	default: // LRU
		v := 0
		for i := range meta {
			if meta[i].lastUse < meta[v].lastUse {
				v = i
			}
		}
		return base + v
	}
}

// checkCanonical validates a vector line identity. Non-canonical lines come
// from mis-compiled or corrupt traces; they fail the run with a typed error
// rather than panicking.
func (c *cacheCtl) checkCanonical(id isa.LineID) bool {
	if !id.IsCanonical() {
		c.q.Failf(c.p.Name, "access", sim.ErrInvalidAccess,
			"non-canonical line %v (mis-compiled or corrupt trace)", id)
		return false
	}
	return true
}

// hit counts a demand hit on block line id and traces it.
func (c *cacheCtl) hit(at uint64, id isa.LineID) {
	c.stats.Hits++
	if c.tr != nil {
		c.traceEv(at, "hit", id, 0)
	}
}

// miss counts a demand miss on line id and traces it.
func (c *cacheCtl) miss(at uint64, id isa.LineID) {
	c.stats.Misses++
	if c.tr != nil {
		c.traceEv(at, "miss", id, 0)
	}
}

// countAccess counts one demand access from above.
func (c *cacheCtl) countAccess(op isa.Op) {
	c.stats.Accesses++
	c.stats.ByOrient[op.Orient]++
	if op.Vector {
		c.stats.VectorAccesses++
	} else {
		c.stats.ScalarAccesses++
	}
}

// writeback sends the masked words of line id below. Traffic is accounted
// at dirty-word granularity — the per-word dirty bits of §IV-C exist
// precisely to shrink false-sharing writeback bandwidth.
func (c *cacheCtl) writeback(at uint64, id isa.LineID, mask uint8, data [isa.WordsPerLine]uint64) {
	c.stats.Writebacks++
	c.stats.BytesToBelow += uint64(bits.OnesCount8(mask)) * isa.WordSize
	if c.tr != nil {
		c.traceEv(at, "writeback", id, uint64(mask))
	}
	c.below.Writeback(at, id, mask, data)
}

// requestFill starts (or joins) a miss for line id. t describes the consumer
// to wake with the installed line's data (tNone for prefetches and dense
// background fills). A prefetch is dropped, not stalled, when the MSHR file
// is full.
func (c *cacheCtl) requestFill(at uint64, id isa.LineID, prefetch bool, t fillTarget) {
	if e := c.mshr.lookup(id); e != nil {
		c.stats.MSHRCoalesced++
		if c.tr != nil {
			c.traceMSHR(at, "mshr_coalesce", id)
		}
		if e.prefetch && !prefetch && c.lineArr != nil {
			// A demand miss caught an in-flight prefetch: partial coverage.
			// (The tile array's background entries are dense sibling
			// fills, not prefetcher hits.)
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
			return
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
	if c.lineArr != nil {
		c.lineArr.flushIntersecting(at, id)
	}
	c.stats.FillsIssued++
	c.below.Fill(at, id, e.onFill)
	if c.tileArr != nil && c.tileArr.dense && !prefetch {
		c.tileArr.fillSiblings(at, id)
	}
}

// fillArrived completes a miss: the array installs the line, then every
// target wakes at the array's delivery latency — word and line deliveries
// snapshot the installed data now, stores apply now — and the oldest access
// stalled on a full MSHR file is re-issued.
func (c *cacheCtl) fillArrived(at uint64, e *mshrEntry) {
	id := e.line
	c.stats.BytesFromBelow += isa.LineSize
	c.fillLat.Observe(at - e.born)
	if c.tr.Enabled(obs.CatCache) {
		c.tr.Span(e.born, at-e.born, obs.CatCache, c.p.Name, "fill",
			obs.Fields{Addr: id.Base, Orient: int8(id.Orient)})
	}
	var data [isa.WordsPerLine]uint64
	if c.lineArr != nil {
		data = c.lineArr.installFill(at, e)
	} else {
		data = c.tileArr.installFill(at, id)
	}
	deliverAt := at + c.fillDeliver
	w, stalled := c.mshr.complete(e)
	if c.tr != nil {
		c.traceMSHR(at, "mshr_retire", id)
	}
	for i := range e.targets {
		switch t := &e.targets[i]; t.kind {
		case tWord:
			c.q.ScheduleArg(deliverAt, t.done1, data[t.off])
		case tLine:
			c.q.ScheduleData(deliverAt, t.done8, &data)
		case tStore:
			if c.lineArr != nil {
				c.lineArr.applyStore(deliverAt, id, t.addr, t.value)
			} else {
				c.tileArr.applyStore(deliverAt, t.addr, t.value)
			}
			c.q.ScheduleArg(deliverAt, t.done1, 0)
		}
	}
	if stalled {
		c.requestFill(at, w.line, false, w.target)
	}
	c.mshr.release(e)
}
