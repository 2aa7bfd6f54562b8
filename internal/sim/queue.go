// Package sim provides the discrete-event simulation kernel used by the
// MDACache memory-system models: an event queue with deterministic ordering,
// a busy-until resource primitive for modelling occupied ports and buses, and
// a small deterministic PRNG for workload generation.
//
// All simulated components share a single EventQueue and express time in CPU
// cycles (uint64). Events scheduled for the same cycle run in FIFO order of
// scheduling, which makes simulations reproducible run-to-run.
package sim

import "math/bits"

// LineData is the fixed-size data payload carried by ScheduleData events.
// It is the same type as a cache line's worth of words ([8]uint64 —
// isa.WordsPerLine is 8); sim deliberately does not import isa.
type LineData = [8]uint64

// Callback encodings. The queue is the simulator's hottest structure; its
// heap entries are pointer-free (no GC write barriers while sifting) and the
// callback payloads live in a pooled slot array, so steady-state scheduling
// allocates nothing. Three encodings cover the simulator's callback shapes:
//
//	evFn   — plain func(); the classic Schedule API.
//	evArg  — func(now, arg); one word of payload, used for per-word data
//	         delivery and token-carrying completions. The closure can be
//	         pre-bound once (e.g. per pooled MSHR entry or CPU slot) and
//	         reused forever, so the schedule itself is allocation-free.
//	evData — func(now, *LineData); a full line of payload copied into the
//	         slot at schedule time and handed out by pointer at dispatch,
//	         so fill/writeback paths stop copying [8]uint64 through
//	         closure captures. The pointee is valid only during the call.
//
// evData is kept on a measurement, not on faith: with closures capturing the
// line instead, benchmark/run.sh's kernel-sweep fell from 937k to 718k
// simulated ops/s and kv-4core from 899k to 811k (30 s runs on a 2-CPU Xeon
// VM, 3 of 3 alternating pairs each), and kv-4core's peak RSS rose 38%. The line-fill hit pins in
// internal/core/alloc_test.go (TestLineFillHitAllocFree*) fail with closures.
const (
	evFn = iota
	evArg
	evData
)

// heapEnt is one scheduled event's ordering record: ordering key plus the
// index of its payload slot. Pointer-free by design — wheel appends and heap
// sifts move plain words and trigger no write barriers.
type heapEnt struct {
	at  uint64
	seq uint64
	idx int32
}

func entLess(a, b *heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The calendar wheel covers cycles [now, now+wheelSize). Simulated latencies
// are almost always far below this horizon (port and tag latencies are a few
// cycles, a full memory round trip a few hundred), so nearly every event gets
// O(1) scheduling and O(1) dispatch; only far-future events (watchdogs,
// refresh-style timers) take the overflow heap.
const (
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	occWords  = wheelSize / 64
)

// slot holds one scheduled callback's payload. Slots are pooled via an
// intrusive freelist (next) and reused, so the only allocations in steady
// state are the initial pool growth to the simulation's high-water mark.
type slot struct {
	fn   func()                        // evFn
	fnA  func(now, arg uint64)         // evArg
	fnD  func(now uint64, d *LineData) // evData
	arg  uint64
	data LineData
	next int32 // freelist link
	kind uint8
}

// EventQueue is a discrete-event scheduler. The zero value is ready to use.
//
// Events within the wheel horizon live in per-cycle FIFO buckets: schedule is
// an append, dispatch walks the bucket in insertion order, and an occupancy
// bitmap finds the next non-empty cycle with a handful of word scans. Each
// bucket holds at most one cycle's events at a time (the horizon equals the
// wheel size, and now never advances past an occupied bucket), so bucket
// order IS (at, seq) order: seq is assigned in global call order, and all
// appends to a given bucket happen in that order. Far-future events sit in a
// 4-ary overflow heap and are merged — by seq, restoring the exact total
// order — into their bucket when their cycle becomes the next to run.
type EventQueue struct {
	buckets  [][]heapEnt      // wheelSize buckets, allocated on first schedule
	bheads   []int32          // per-bucket dispatch positions
	occ      [occWords]uint64 // bucket-occupancy bitmap
	of       []heapEnt        // overflow heap: at >= now+wheelSize at insert
	spare    [][]heapEnt      // drained bucket slices, recycled on append
	mig      []heapEnt        // migration scratch (overflow side)
	mig2     []heapEnt        // migration scratch (bucket side)
	pending  int
	slots    []slot
	freeHead int32 // -1 when empty; zero value works because slots is empty
	now      uint64
	seq      uint64
	fail     error
}

// Fail records a simulation failure. The first failure wins; Run and Step
// stop executing events once one is recorded, so a component deep inside an
// event callback can abort the run without unwinding through every caller.
// Drivers check Err after the queue stops.
func (q *EventQueue) Fail(err error) {
	if q.fail == nil {
		q.fail = err
	}
}

// Err returns the first failure recorded via Fail (nil while healthy).
func (q *EventQueue) Err() error { return q.fail }

// Now returns the current simulated cycle.
func (q *EventQueue) Now() uint64 { return q.now }

// allocSlot returns the index of a free payload slot, growing the pool only
// when the freelist is empty.
func (q *EventQueue) allocSlot() int32 {
	if i := q.freeHead - 1; i >= 0 {
		q.freeHead = q.slots[i].next
		return i
	}
	q.slots = append(q.slots, slot{})
	return int32(len(q.slots) - 1)
}

// freeSlot returns a slot to the pool, clearing its callback references so
// the pool never pins dead closures for the GC.
func (q *EventQueue) freeSlot(i int32) {
	s := &q.slots[i]
	s.fn, s.fnA, s.fnD = nil, nil, nil
	s.next = q.freeHead
	q.freeHead = i + 1 // stored 1-based so the zero value means "empty"
}

// pushOf inserts an entry into the 4-ary overflow heap.
func (q *EventQueue) pushOf(e heapEnt) {
	q.of = append(q.of, e)
	h := q.of
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !entLess(&h[i], &h[parent]) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// popOf removes and returns the overflow heap's minimum entry.
func (q *EventQueue) popOf() heapEnt {
	h := q.of
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.of = h
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entLess(&h[c], &h[small]) {
				small = c
			}
		}
		if !entLess(&h[small], &h[i]) {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// schedule clamps past times to now, assigns the next sequence number, and
// enqueues the entry for slot idx — wheel bucket if within the horizon,
// overflow heap otherwise.
func (q *EventQueue) schedule(at uint64, idx int32) {
	if at < q.now {
		at = q.now
	}
	q.seq++
	e := heapEnt{at: at, seq: q.seq, idx: idx}
	if q.buckets == nil {
		// Lazy wheel allocation keeps never-run queues (config validation,
		// construction-only machines) at the zero value's footprint.
		q.buckets = make([][]heapEnt, wheelSize)
		q.bheads = make([]int32, wheelSize)
	}
	if at-q.now < wheelSize {
		b := at & wheelMask
		lst := q.buckets[b]
		// A drained bucket donates its storage to the spare pool; reuse it
		// here so steady-state scheduling never allocates.
		if cap(lst) == 0 && len(q.spare) > 0 {
			lst = q.spare[len(q.spare)-1]
			q.spare = q.spare[:len(q.spare)-1]
		}
		q.buckets[b] = append(lst, e)
		q.occ[b>>6] |= 1 << (b & 63)
	} else {
		q.pushOf(e)
	}
	q.pending++
}

// scanWheel returns the earliest occupied bucket's cycle, scanning the
// occupancy bitmap cyclically from now. Scanning in increasing bit distance
// from now visits buckets in increasing cycle order, because every occupied
// bucket's cycle is now + ((bucket - now) mod wheelSize).
func (q *EventQueue) scanWheel() (uint64, bool) {
	base := q.now & wheelMask
	w := int(base >> 6)
	word := q.occ[w] &^ (1<<(base&63) - 1) // ignore buckets before now's slot
	for i := 0; i < occWords; i++ {
		if word != 0 {
			b := uint64(w<<6 + bits.TrailingZeros64(word))
			return q.now + ((b - base) & wheelMask), true
		}
		w++
		if w == occWords {
			w = 0
		}
		word = q.occ[w]
	}
	// Full lap: only the low bits of the starting word remain.
	if word = q.occ[base>>6] & (1<<(base&63) - 1); word != 0 {
		b := uint64(base&^63 + uint64(bits.TrailingZeros64(word)))
		return q.now + ((b - base) & wheelMask), true
	}
	return 0, false
}

// migrate moves every overflow entry scheduled for cycle t into t's wheel
// bucket, merging by seq with anything already there so the total (at, seq)
// dispatch order is restored exactly. Called only when t is the next cycle to
// run, which guarantees the bucket is undispatched (bhead 0) and holds only
// cycle-t events.
func (q *EventQueue) migrate(t uint64) {
	q.mig = q.mig[:0]
	for len(q.of) > 0 && q.of[0].at == t {
		q.mig = append(q.mig, q.popOf())
	}
	b := t & wheelMask
	dst := q.buckets[b]
	if len(dst) == 0 {
		q.buckets[b] = append(dst, q.mig...)
	} else {
		q.mig2 = append(q.mig2[:0], dst...)
		out := dst[:0]
		i, j := 0, 0
		for i < len(q.mig) && j < len(q.mig2) {
			if q.mig[i].seq < q.mig2[j].seq {
				out = append(out, q.mig[i])
				i++
			} else {
				out = append(out, q.mig2[j])
				j++
			}
		}
		out = append(out, q.mig[i:]...)
		out = append(out, q.mig2[j:]...)
		q.buckets[b] = out
	}
	q.occ[b>>6] |= 1 << (b & 63)
}

// next pops the earliest pending event and advances now to its cycle. When
// limited, an event later than limit is left queued and next returns false.
func (q *EventQueue) next(limit uint64, limited bool) (heapEnt, bool) {
	for q.pending > 0 {
		var tW uint64
		okW := false
		b := q.now & wheelMask
		if int(q.bheads[b]) < len(q.buckets[b]) {
			tW, okW = q.now, true // fast path: still draining now's bucket
		} else {
			tW, okW = q.scanWheel()
		}
		if len(q.of) > 0 {
			if tO := q.of[0].at; !okW || tO <= tW {
				if limited && tO > limit {
					return heapEnt{}, false
				}
				if tO-q.now >= wheelSize {
					// The overflow minimum lies beyond the wheel horizon,
					// which implies the wheel is empty (otherwise tO <= tW <
					// now+wheelSize). Jump now to tO first so the migrated
					// bucket stays inside the horizon; without this,
					// scanWheel would alias it to tO-wheelSize and dispatch
					// its events a full lap early.
					q.now = tO
				}
				q.migrate(tO)
				continue
			}
		}
		if !okW {
			return heapEnt{}, false
		}
		if limited && tW > limit {
			return heapEnt{}, false
		}
		b = tW & wheelMask
		ents := q.buckets[b]
		h := q.bheads[b]
		e := ents[h]
		h++
		if int(h) == len(ents) {
			q.spare = append(q.spare, ents[:0])
			q.buckets[b] = nil
			q.bheads[b] = 0
			q.occ[b>>6] &^= 1 << (b & 63)
		} else {
			q.bheads[b] = h
		}
		q.pending--
		q.now = tW
		return e, true
	}
	return heapEnt{}, false
}

// Schedule registers fn to run at cycle `at`. Scheduling in the past (at <
// Now) runs the event at the current cycle instead; this arises naturally
// when a component computes a ready-time that has already elapsed.
func (q *EventQueue) Schedule(at uint64, fn func()) {
	i := q.allocSlot()
	s := &q.slots[i]
	s.kind = evFn
	s.fn = fn
	q.schedule(at, i)
}

// ScheduleArg registers fn to run at cycle `at` with one word of payload.
// Because fn can be a long-lived pre-bound closure, a steady-state
// ScheduleArg call allocates nothing.
func (q *EventQueue) ScheduleArg(at uint64, fn func(now, arg uint64), arg uint64) {
	i := q.allocSlot()
	s := &q.slots[i]
	s.kind = evArg
	s.fnA = fn
	s.arg = arg
	q.schedule(at, i)
}

// ScheduleData registers fn to run at cycle `at` with a full line of
// payload. The line is copied into the event's pooled slot now and handed
// to fn by pointer at dispatch; fn owns the pointee only for the duration
// of the call and must copy anything it wants to keep.
func (q *EventQueue) ScheduleData(at uint64, fn func(now uint64, d *LineData), data *LineData) {
	i := q.allocSlot()
	s := &q.slots[i]
	s.kind = evData
	s.fnD = fn
	s.data = *data
	q.schedule(at, i)
}

// After schedules fn to run `delay` cycles from now.
func (q *EventQueue) After(delay uint64, fn func()) {
	q.Schedule(q.now+delay, fn)
}

// Pending reports the number of scheduled-but-unrun events.
func (q *EventQueue) Pending() int { return q.pending }

// dispatch runs the callback in slot idx at the already-advanced Now.
// evFn/evArg free the slot before the call (the callback's own schedules
// may then reuse it immediately); evData frees after, because the callback
// holds a pointer into the slot's data for the duration of the call.
func (q *EventQueue) dispatch(idx int32) {
	s := &q.slots[idx]
	switch s.kind {
	case evFn:
		fn := s.fn
		q.freeSlot(idx)
		fn()
	case evArg:
		fn, arg := s.fnA, s.arg
		q.freeSlot(idx)
		fn(q.now, arg)
	default: // evData
		fn := s.fnD
		fn(q.now, &s.data)
		// The callback may have scheduled events, growing q.slots; re-index
		// rather than using the possibly-stale s pointer.
		q.freeSlot(idx)
	}
}

// Step pops and runs the earliest event, advancing Now to its cycle. It
// returns false when the queue is empty or a failure has been recorded.
func (q *EventQueue) Step() bool {
	if q.fail != nil {
		return false
	}
	e, ok := q.next(0, false)
	if !ok {
		return false
	}
	q.dispatch(e.idx)
	return true
}

// Run drains the queue until it is empty, the cycle limit is exceeded, or a
// failure is recorded. It returns the number of events executed. A limit of
// 0 means no limit.
func (q *EventQueue) Run(cycleLimit uint64) (executed uint64) {
	return q.run(cycleLimit, cycleLimit != 0, 0)
}

// RunBounded is Run with an additional event budget: it also stops after
// maxEvents events (0 = unbounded). Drivers use it to interleave watchdog
// checks — wall-clock deadlines, progress monitoring — with queue progress.
func (q *EventQueue) RunBounded(cycleLimit, maxEvents uint64) (executed uint64) {
	return q.run(cycleLimit, cycleLimit != 0, maxEvents)
}

// run is the shared run loop: pop the next event, dispatch it, and stop at
// the event budget. next's fast path keeps draining the current cycle's
// bucket without rescanning the wheel.
func (q *EventQueue) run(limit uint64, limited bool, maxEvents uint64) (executed uint64) {
	for q.fail == nil {
		e, ok := q.next(limit, limited)
		if !ok {
			break
		}
		q.dispatch(e.idx)
		executed++
		if maxEvents != 0 && executed == maxEvents {
			break
		}
	}
	return executed
}

// Resource models a unit that can service one request at a time (a data bus,
// a cache port, a bank's sense amplifiers). Acquire returns the cycle at
// which a request arriving at `at` actually starts service, reserving the
// resource for `dur` cycles from that point.
type Resource struct {
	nextFree uint64
}

// Acquire reserves the resource for dur cycles starting no earlier than at.
// It returns the actual start cycle.
func (r *Resource) Acquire(at, dur uint64) (start uint64) {
	start = at
	if r.nextFree > start {
		start = r.nextFree
	}
	r.nextFree = start + dur
	return start
}

// FreeAt reports the cycle at which the resource next becomes free.
func (r *Resource) FreeAt() uint64 { return r.nextFree }
