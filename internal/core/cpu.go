package core

import (
	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
)

// CPU is the trace-driven processor model. It approximates the paper's
// out-of-order x86 core (Table I) with the properties the memory system
// actually observes: memory operations issue in program order, separated by
// their compute gaps, with up to Window operations in flight at once
// (bounding memory-level parallelism the way a ROB + LSQ does), and the
// simulation's execution time is the cycle at which the last operation
// completes.
//
// Like a load-store queue, the CPU never lets two operations with
// overlapping words and at least one store be in flight simultaneously
// (§IV-B: "transactions that have overlapping words should be ordered, even
// if the access directions are different"). This both models the paper's
// ordering requirement and makes simulations functionally exact: every load
// observes the program-order-latest store.
type CPU struct {
	q      *sim.EventQueue
	l1     Level
	window int

	// coreID/name identify this core ("cpu" on a single-core machine,
	// "cpu<i>" otherwise); group holds every core of the machine, this one
	// included, so the §IV-B overlap-ordering rule spans the whole machine
	// (see coreGroup). A CPU built alone is a group of one.
	coreID int
	name   string
	group  *coreGroup

	trace isa.TraceReader
	// blocker is non-nil when the trace supports transient backpressure
	// (isa.Blocker): a failed Next with Blocked() true parks the pump until
	// the trace's readable callback reschedules it, instead of marking the
	// trace exhausted. Wakes go through the event queue, so parking and
	// resuming stay deterministic.
	blocker  isa.Blocker
	inflight []inflightOp
	// tileOps/tileStores count in-flight ops and stores per tile bucket
	// (tileBucket). Two ops can only overlap inside one tile, so a store
	// whose bucket holds no op, or a load whose bucket holds no store,
	// cannot conflict and windowConflicts skips its window scan.
	tileOps    [tileBuckets]int32
	tileStores [tileBuckets]int32
	heldOp     isa.Op // next op, waiting for an overlap conflict to clear
	heldSet    bool
	cursor     uint64 // next program-order issue cycle
	lastDone   uint64
	exhausted  bool
	pumping    bool

	// blockSlot/blockTok name the in-flight op (on any core) the held op
	// last conflicted with. While that slot still carries blockTok the op
	// is in flight and the held op cannot issue, so pump skips the overlap
	// check; retire zeroes a slot's token, so the first pump after the
	// blocker retires re-runs it.
	blockSlot *cpuSlot
	blockTok  uint64

	// freeSlots pools issue slots; each slot's issue/done callbacks are bound
	// once at creation, so steady-state issue→complete allocates nothing.
	freeSlots *cpuSlot

	// tokenCounter issues in-flight op tokens. Per-CPU (not package-level)
	// state so concurrent machines — parallel sweep workers — never share a
	// counter: sharing would be a data race and would make token values
	// depend on goroutine interleaving.
	tokenCounter uint64

	// OnLoad, if set, observes every completed load (op, loaded value).
	// Used by the functional-verification tests.
	OnLoad func(op isa.Op, value uint64)

	// OnIssue, if set, observes (and may rewrite) every op at the moment it
	// actually issues — after any overlap-ordering hold has cleared, exactly
	// once per op. Because the ordering rule serializes conflicting ops
	// machine-wide, a shared reference model applied in issue order is an
	// exact value oracle even across cores; the multi-core conformance
	// harness uses this hook to annotate loads with their expected values.
	OnIssue func(op isa.Op) isa.Op

	// Counters.
	Ops         uint64
	ByKind      [2]uint64 // loads, stores
	ByOrient    [2]uint64
	Vectors     uint64
	OrderStalls uint64 // ops delayed by the overlap-ordering rule
	// windowScans counts scans of this core's in-flight window that the
	// tile filter let through. Host work only, deliberately unregistered.
	windowScans uint64
	finished    func(endCycle uint64)
	tr          *obs.Tracer
}

// instrument registers the CPU's counters and attaches the tracer. Counter
// names are prefixed with the core's name ("cpu" single-core, "cpu<i>" in
// multi-core machines), giving each core its own counter family.
func (c *CPU) instrument(reg *obs.Registry, tr *obs.Tracer) {
	c.tr = tr
	p := c.name + "."
	reg.Counter(p+"ops", &c.Ops)
	reg.Counter(p+"loads", &c.ByKind[isa.Load])
	reg.Counter(p+"stores", &c.ByKind[isa.Store])
	reg.Counter(p+"ops.row", &c.ByOrient[isa.Row])
	reg.Counter(p+"ops.col", &c.ByOrient[isa.Col])
	reg.Counter(p+"vectors", &c.Vectors)
	reg.Counter(p+"order_stalls", &c.OrderStalls)
}

// tileBuckets is the number of per-CPU tile buckets the in-flight counters
// hash tiles into; tiles tileBuckets apart share a bucket, which only costs
// an exact window scan.
const tileBuckets = 1024

// tileBucket returns the in-flight counter bucket of the tile holding addr.
func tileBucket(addr uint64) uint64 { return (addr / isa.TileSize) % tileBuckets }

type inflightOp struct {
	slot   *cpuSlot
	line   isa.LineID
	addr   uint64 // scalar word address (vector ops use the whole line)
	store  bool
	vector bool
}

// cpuSlot carries one issued op from its issue event to its completion
// callback. Slots are pooled (one live per in-flight op, so at most `window`)
// and their two closures are created once per slot, not once per op.
type cpuSlot struct {
	c       *CPU
	op      isa.Op
	token   uint64 // the op's token while in flight, 0 once retired
	idx     int    // the op's index in c.inflight
	issueAt uint64
	next    *cpuSlot
	issueFn func()
	doneFn  func(doneAt, value uint64)
}

func (c *CPU) getSlot() *cpuSlot {
	if s := c.freeSlots; s != nil {
		c.freeSlots = s.next
		s.next = nil
		return s
	}
	s := &cpuSlot{c: c}
	s.issueFn = func() { s.c.l1.CPUAccess(s.issueAt, s.op, s.doneFn) }
	s.doneFn = func(doneAt, value uint64) {
		cc := s.c
		if doneAt > cc.lastDone {
			cc.lastDone = doneAt
		}
		if s.op.Kind == isa.Load && cc.OnLoad != nil {
			cc.OnLoad(s.op, value)
		}
		cc.retire(s)
		s.next = cc.freeSlots
		cc.freeSlots = s
		// A retiring op may unblock a held op on ANY core; retry all of
		// them in ascending core-ID order — the deterministic cross-core
		// wake rule (DESIGN §11).
		cc.group.pumpAll()
	}
	return s
}

// NewCPU builds a core above l1 with the given in-flight window, as a
// group of one.
func NewCPU(q *sim.EventQueue, l1 Level, window int) *CPU {
	c := &CPU{q: q, l1: l1, window: window, name: "cpu"}
	c.group = &coreGroup{cpus: []*CPU{c}}
	return c
}

// Start begins consuming the trace; finished fires (once) when every op has
// completed.
func (c *CPU) Start(trace isa.TraceReader, finished func(endCycle uint64)) {
	c.trace = trace
	c.finished = finished
	if b, ok := trace.(isa.Blocker); ok {
		c.blocker = b
		b.OnReadable(func() { c.q.Schedule(c.q.Now(), c.pump) })
	}
	c.q.Schedule(c.q.Now(), c.pump)
}

// Name is the core's metric prefix: "cpu" on a single-core machine,
// "cpu<i>" otherwise.
func (c *CPU) Name() string { return c.name }

// InFlight reports the number of ops currently in the out-of-order window
// (stall diagnostics).
func (c *CPU) InFlight() int { return len(c.inflight) }

// Held reports whether an op is parked on the overlap-ordering rule (stall
// diagnostics).
func (c *CPU) Held() bool { return c.heldSet }

// HeldOp returns the parked op (valid only when Held; stall diagnostics).
func (c *CPU) HeldOp() isa.Op { return c.heldOp }

// windowConflicts checks op against this core's own in-flight window and
// returns the first op it conflicts with, or nil.
func (c *CPU) windowConflicts(op isa.Op) *inflightOp {
	isStore := op.Kind == isa.Store
	// Conflicts need a word overlap, hence the same tile: skip the scan
	// when op's tile bucket holds nothing op could conflict with (a load
	// only conflicts with stores).
	if b := tileBucket(op.Addr); isStore && c.tileOps[b] == 0 || !isStore && c.tileStores[b] == 0 {
		return nil
	}
	c.windowScans++
	id := isa.LineFor(op)
	for i := range c.inflight {
		e := &c.inflight[i]
		if !e.store && !isStore {
			continue
		}
		if !e.line.Overlaps(id) {
			continue
		}
		switch {
		case e.vector && op.Vector:
			return e // overlapping lines always share a word
		case e.vector && !op.Vector:
			if e.line.Contains(op.Addr) {
				return e
			}
		case !e.vector && op.Vector:
			if id.Contains(e.addr) {
				return e
			}
		default:
			if e.addr == op.Addr {
				return e
			}
		}
	}
	return nil
}

// pump issues ops while window slots are free and ordering allows.
func (c *CPU) pump() {
	if c.pumping {
		return
	}
	c.pumping = true
	defer func() { c.pumping = false }()
	for len(c.inflight) < c.window && !c.exhausted {
		var op isa.Op
		if c.heldSet {
			if c.blockSlot.token == c.blockTok {
				break // the blocker is still in flight: the check would fail
			}
			op = c.heldOp
		} else {
			next, ok := c.trace.Next()
			if !ok {
				if c.blocker != nil && c.blocker.Blocked() {
					break // transient backpressure: OnReadable reschedules the pump
				}
				c.exhausted = true
				break
			}
			op = next
		}
		if e := c.group.conflicts(op); e != nil {
			c.blockSlot, c.blockTok = e.slot, e.slot.token
			if !c.heldSet {
				c.OrderStalls++
				if c.tr.Enabled(obs.CatCPU) {
					c.tr.Instant(c.q.Now(), obs.CatCPU, c.name, "order_stall",
						obs.Fields{Addr: op.Addr, Orient: int8(op.Orient)})
				}
				c.heldOp = op
				c.heldSet = true
			}
			break // retried once the blocker retires
		}
		c.heldSet = false
		c.issue(op)
	}
	c.maybeFinish()
}

func (c *CPU) issue(op isa.Op) {
	if c.OnIssue != nil {
		op = c.OnIssue(op)
	}
	c.Ops++
	c.ByKind[op.Kind]++
	c.ByOrient[op.Orient]++
	if op.Vector {
		c.Vectors++
	}
	now := c.q.Now()
	// Program-order pacing: at least one cycle between issues plus the
	// op's compute gap; never earlier than now.
	c.cursor += 1 + uint64(op.Gap)
	if c.cursor < now {
		c.cursor = now
	}
	issueAt := c.cursor

	c.tokenCounter++
	isStore := op.Kind == isa.Store
	b := tileBucket(op.Addr)
	c.tileOps[b]++
	if isStore {
		c.tileStores[b]++
	}
	s := c.getSlot()
	s.op = op
	s.token = c.tokenCounter
	s.idx = len(c.inflight)
	s.issueAt = issueAt
	c.inflight = append(c.inflight, inflightOp{
		slot: s, line: isa.LineFor(op), addr: op.Addr,
		store: isStore, vector: op.Vector,
	})
	c.q.Schedule(issueAt, s.issueFn)
}

// retire removes s's op from the window and zeroes s's token.
func (c *CPU) retire(s *cpuSlot) {
	e := &c.inflight[s.idx]
	b := tileBucket(e.line.Base)
	c.tileOps[b]--
	if e.store {
		c.tileStores[b]--
	}
	// Swap-remove: whether an op conflicts does not depend on window order,
	// so in-flight order need not be preserved.
	last := len(c.inflight) - 1
	c.inflight[s.idx] = c.inflight[last]
	c.inflight[s.idx].slot.idx = s.idx
	c.inflight = c.inflight[:last]
	s.token = 0
}

func (c *CPU) maybeFinish() {
	if c.exhausted && len(c.inflight) == 0 && !c.heldSet && c.finished != nil {
		fin := c.finished
		c.finished = nil
		end := c.lastDone
		if c.cursor > end {
			end = c.cursor
		}
		fin(end)
	}
}
