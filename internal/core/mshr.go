package core

import (
	"math/bits"

	"mdacache/internal/isa"
)

// fillTarget is one consumer of an in-flight fill, encoded as a small value
// instead of a per-miss closure (the fill path is hot enough that closure
// allocation and [8]uint64 captures dominated the profile). The cache
// controller interprets the kind in its fillArrived dispatch; the
// done1/done8 callbacks are the upper layer's completion functions, which
// are long-lived (pooled CPU slots, pooled MSHR entries), so registering a
// target allocates nothing in steady state.
type fillTarget struct {
	kind  uint8
	off   uint8  // word offset for tWord delivery
	addr  uint64 // scalar word address (store targets)
	value uint64 // store value
	done1 func(at, v uint64)
	done8 func(at uint64, data *[isa.WordsPerLine]uint64)
}

// Target kinds. tNone marks "no target" (prefetches, dense background
// fills).
const (
	tNone  = uint8(iota)
	tWord  // deliver data[off] to done1 at deliverAt
	tLine  // deliver the full line to done8 at deliverAt
	tStore // the array applies value at addr, then done1 fires at deliverAt
)

// mshrFile models a cache's miss-status holding registers. Misses to a line
// already in flight coalesce onto the existing entry (the paper notes that
// "many misses to the same column are combined into one column access in the
// MSHR"). When the file is full, the requesting access is queued and retried
// as entries free up, modelling MSHR-full stalls.
//
// The 2-D awareness required by §IV-B (ordering of transactions with
// overlapping words across orientations) is implemented by the owning cache:
// every fill is preceded, in the same cycle, by writebacks of any
// intersecting modified lines, and fill completions patch in-cache modified
// words, so overlapping write→read order is preserved end to end.
//
// Layout: in-flight entries live in an open-addressing table keyed by the
// packed line key — power-of-two size at least twice the capacity, linear
// probing, backward-shift deletion — so lookup, allocate and complete are
// O(1) whatever the file's occupancy. Each entry records its slot, so
// complete needs no lookup. Entries are pooled and pre-bound to their cache's
// fill-arrival callback via the bind hook, so allocation is amortised to the
// simulation's high-water mark.
type mshrFile struct {
	cap   int
	n     int                // entries in flight
	table []mshrSlot         // open-addressing index, len a power of two
	mask  uint64             // len(table) - 1
	shift uint               // 64 - log2(len(table)), for Fibonacci hashing
	free  *mshrEntry         // entry pool (intrusive list via poolNext)
	bind  func(e *mshrEntry) // owner pre-binds e.onFill on first allocation

	// Stalled accesses wait in a head-index ring (FIFO). A plain
	// `waiters = waiters[1:]` pop would pin every popped element's backing
	// array forever; the ring reuses one buffer and zeroes popped slots.
	// TestMSHRWaiterRingFIFO and TestMSHRWaiterRingBoundedCapacity pin
	// the order and the bounded buffer.
	waiters []waiter
	wHead   int
	wLen    int
}

// mshrSlot is one table slot; e == nil marks it empty (key 0 is a valid
// line key, so the key alone cannot).
type mshrSlot struct {
	key uint64
	e   *mshrEntry
}

// waiter is one access stalled on a full file: enough to re-issue the
// requestFill that stalled.
type waiter struct {
	line   isa.LineID
	target fillTarget
}

type mshrEntry struct {
	line     isa.LineID
	slot     int // index in mshrFile.table while in flight
	prefetch bool
	born     uint64 // allocation cycle, for fill-latency accounting
	targets  []fillTarget
	// onFill is the below.Fill completion callback, bound once per pooled
	// entry by the owning cache (it closes over the entry itself, so fill
	// arrival needs no per-miss closure).
	onFill   func(at uint64, data *[isa.WordsPerLine]uint64)
	poolNext *mshrEntry
}

// lineKey packs a LineID into 8 bytes: Base is word-aligned (low 3 bits
// zero), so the orientation bit fits below it uniquely.
func lineKey(line isa.LineID) uint64 { return line.Base | uint64(line.Orient) }

// newMSHRFile builds a file; bind is invoked once for every newly created
// pooled entry so the owning cache can pre-bind its fill-arrival callback.
func newMSHRFile(capacity int, bind func(e *mshrEntry)) *mshrFile {
	size := 2
	for size < 2*capacity {
		size *= 2
	}
	return &mshrFile{
		cap:   capacity,
		table: make([]mshrSlot, size),
		mask:  uint64(size - 1),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		bind:  bind,
	}
}

// home is key's preferred table slot (Fibonacci hashing: line keys differ
// mostly in middle bits, which the multiply spreads into the top bits).
func (f *mshrFile) home(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) >> f.shift }

// lookup returns the in-flight entry for line, if any.
func (f *mshrFile) lookup(line isa.LineID) *mshrEntry {
	k := lineKey(line)
	for i := f.home(k); ; i = (i + 1) & f.mask {
		s := &f.table[i]
		if s.e == nil || s.key == k {
			return s.e
		}
	}
}

// full reports whether a new entry can be allocated.
func (f *mshrFile) full() bool { return f.n >= f.cap }

// allocate creates an entry; the caller must have checked full() and that
// line is not already in flight.
func (f *mshrFile) allocate(line isa.LineID, prefetch bool) *mshrEntry {
	if f.full() {
		panic("core: MSHR allocate on a full file")
	}
	e := f.free
	if e != nil {
		f.free = e.poolNext
		e.poolNext = nil
	} else {
		e = &mshrEntry{}
		if f.bind != nil {
			f.bind(e)
		}
	}
	e.line = line
	e.prefetch = prefetch
	e.born = 0
	k := lineKey(line)
	i := f.home(k)
	for f.table[i].e != nil {
		i = (i + 1) & f.mask
	}
	f.table[i] = mshrSlot{key: k, e: e}
	e.slot = int(i)
	f.n++
	return e
}

// remove frees e's slot by backward-shift deletion: later entries of the
// probe run move up into the hole whenever that keeps them reachable from
// their home slot, so lookups never need tombstones.
func (f *mshrFile) remove(e *mshrEntry) {
	hole := uint64(e.slot)
	if f.table[hole].e != e {
		panic("core: MSHR complete of an entry not in flight")
	}
	for j := (hole + 1) & f.mask; f.table[j].e != nil; j = (j + 1) & f.mask {
		s := f.table[j]
		h := f.home(s.key)
		// s may fill the hole iff the hole lies on its probe path, i.e.
		// cyclically in [h, j).
		if (hole-h)&f.mask < (j-h)&f.mask {
			f.table[hole] = s
			s.e.slot = int(hole)
			hole = j
		}
	}
	f.table[hole] = mshrSlot{}
	f.n--
}

// stall queues the access to be re-issued when an entry frees.
func (f *mshrFile) stall(line isa.LineID, target fillTarget) {
	if f.wLen == len(f.waiters) {
		f.growWaiters()
	}
	f.waiters[(f.wHead+f.wLen)&(len(f.waiters)-1)] = waiter{line: line, target: target}
	f.wLen++
}

func (f *mshrFile) growWaiters() {
	newCap := len(f.waiters) * 2
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]waiter, newCap)
	for i := 0; i < f.wLen; i++ {
		buf[i] = f.waiters[(f.wHead+i)&(len(f.waiters)-1)]
	}
	f.waiters = buf
	f.wHead = 0
}

// waiterCap reports the ring's allocated capacity (regression tests pin that
// sustained stall/complete cycling keeps it bounded).
func (f *mshrFile) waiterCap() int { return len(f.waiters) }

// complete removes the entry from the file and dequeues the oldest stalled
// access, if any. The entry itself stays owned by the caller — dispatch its
// targets, then hand it back with release.
func (f *mshrFile) complete(e *mshrEntry) (w waiter, ok bool) {
	f.remove(e)
	if f.wLen > 0 {
		w = f.waiters[f.wHead]
		f.waiters[f.wHead] = waiter{} // release callback refs
		f.wHead = (f.wHead + 1) & (len(f.waiters) - 1)
		f.wLen--
		ok = true
	}
	return w, ok
}

// release returns a completed entry to the pool, dropping its target
// callbacks so the pool never pins dead closures.
func (f *mshrFile) release(e *mshrEntry) {
	for i := range e.targets {
		e.targets[i] = fillTarget{}
	}
	e.targets = e.targets[:0]
	e.poolNext = f.free
	f.free = e
}

// inFlight returns the number of allocated entries.
func (f *mshrFile) inFlight() int { return f.n }
