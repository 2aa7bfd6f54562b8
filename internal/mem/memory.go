package mem

import (
	"math/bits"

	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
)

// Stats accumulates memory-controller activity, indexed by orientation where
// relevant ([isa.Row] / [isa.Col]).
type Stats struct {
	Reads        [2]uint64 // served line reads
	Writes       [2]uint64 // served line writes
	BufferHits   [2]uint64 // open row/column buffer hits
	Activations  [2]uint64 // array activations (buffer misses)
	BytesRead    uint64
	BytesWritten uint64
	ReadLatency  uint64 // summed arrive→critical-word latency, for averages
	Energy       EnergyStats

	// Fault-injection counters (WriteFailProb > 0 only).
	WriteRetries uint64 // re-driven write bursts after a failed verify
	WriteFaults  uint64 // bursts that exhausted the retry budget (aborts the run)
}

// TotalReads returns reads across both orientations.
func (s *Stats) TotalReads() uint64 { return s.Reads[0] + s.Reads[1] }

// TotalWrites returns writes across both orientations.
func (s *Stats) TotalWrites() uint64 { return s.Writes[0] + s.Writes[1] }

// TotalBytes returns bytes moved in both directions.
func (s *Stats) TotalBytes() uint64 { return s.BytesRead + s.BytesWritten }

// AvgReadLatency returns the mean cycles from request arrival to critical
// word delivery.
func (s *Stats) AvgReadLatency() float64 {
	n := s.TotalReads()
	if n == 0 {
		return 0
	}
	return float64(s.ReadLatency) / float64(n)
}

type request struct {
	line   isa.LineID
	mask   uint8 // valid words for writes
	write  bool
	arrive uint64
	crit   uint64 // critical-word delivery cycle (reads, set by serve)
	done   func(at uint64, data *[isa.WordsPerLine]uint64)
	bank   *bankState
	ch     *channelState

	// Pooling: requests are recycled via an intrusive freelist, and the two
	// closures each request needs (queue insertion, read completion) are
	// bound once at creation, so steady-state traffic allocates nothing.
	m      *Memory
	next   *request
	enqFn  func()
	compFn func(now, arg uint64)
}

// bankState tracks the open-line buffers of one bank. Each orientation has
// its own buffer(s): the row buffer and the column buffer of Fig. 2(b).
// With BuffersPerBank > 1 each orientation keeps an MRU list of open lines
// (the multiple sub-row buffer variant of §IX-B).
type bankState struct {
	nextFree uint64
	open     [2][]uint64 // MRU list of open line keys per orientation
}

func (b *bankState) lookup(line isa.LineID) bool {
	key := openLineKey(line)
	for _, k := range b.open[line.Orient] {
		if k == key {
			return true
		}
	}
	return false
}

func (b *bankState) anyOpen(o isa.Orient) bool { return len(b.open[o]) > 0 }

func (b *bankState) insert(line isa.LineID, capacity int) {
	key := openLineKey(line)
	lst := b.open[line.Orient]
	for i, k := range lst {
		if k == key { // move to front
			copy(lst[1:i+1], lst[:i])
			lst[0] = key
			return
		}
	}
	lst = append(lst, 0)
	copy(lst[1:], lst)
	lst[0] = key
	if len(lst) > capacity {
		lst = lst[:capacity]
	}
	b.open[line.Orient] = lst
}

// channelState is one channel's controller state: its queues, bus and
// command resources, bank states and retry timer.
type channelState struct {
	readQ    []*request
	writeQ   []*request
	bus      sim.Resource
	cmd      sim.Resource
	draining bool
	banks    []*bankState

	// retryArmed/retryTime name the channel's one live bank-busy retry wake:
	// a failed issue arms it at the earliest bank-free cycle, re-arming only
	// to an earlier cycle. A wake left queued by such a re-arm is stale, and
	// retryFn drops it, so each channel has at most one retry chain however
	// long its queues stay non-empty. retryFn is the pre-bound callback.
	retryArmed bool
	retryTime  uint64
	retryFn    func()
}

// Memory is the MDA main memory: functional backing store plus the timing
// model. It satisfies the hierarchy's Backend contract (Fill/Writeback).
// Every channel's events run on the system event queue.
type Memory struct {
	q     *sim.EventQueue
	p     Params
	geo   Geometry
	store *Store
	chans []*channelState

	stats    Stats
	faultRNG *sim.RNG // shared by all channels, in global draw order; nil = no fault injection
	freeReqs *request

	// scratch is the line buffer handed to read completions. Safe to share:
	// the Backend.Fill contract says the pointee is valid only for the
	// duration of the callback, and each completion refills it first.
	scratch [isa.WordsPerLine]uint64

	tr      *obs.Tracer    // nil = tracing off
	readLat *obs.Histogram // arrive→critical-word latency (registry-only; nil until Instrument)
}

// Instrument publishes the controller's counters in the registry — aliasing
// the live Stats — and attaches the tracer. Names are "mem.*".
func (m *Memory) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	m.tr = tr
	s := &m.stats
	reg.Counter("mem.reads.row", &s.Reads[isa.Row])
	reg.Counter("mem.reads.col", &s.Reads[isa.Col])
	reg.Counter("mem.writes.row", &s.Writes[isa.Row])
	reg.Counter("mem.writes.col", &s.Writes[isa.Col])
	reg.Counter("mem.buffer_hits.row", &s.BufferHits[isa.Row])
	reg.Counter("mem.buffer_hits.col", &s.BufferHits[isa.Col])
	reg.Counter("mem.activations.row", &s.Activations[isa.Row])
	reg.Counter("mem.activations.col", &s.Activations[isa.Col])
	reg.Counter("mem.bytes_read", &s.BytesRead)
	reg.Counter("mem.bytes_written", &s.BytesWritten)
	reg.Counter("mem.read_latency_sum", &s.ReadLatency)
	reg.Counter("mem.write_retries", &s.WriteRetries)
	reg.Counter("mem.write_faults", &s.WriteFaults)
	reg.Float("mem.energy.activation_pj", &s.Energy.ActivationPJ)
	reg.Float("mem.energy.buffer_pj", &s.Energy.BufferPJ)
	reg.Float("mem.energy.bus_pj", &s.Energy.BusPJ)
	reg.Float("mem.energy.write_pj", &s.Energy.WritePJ)
	m.readLat = reg.Histogram("mem.read_latency")
}

// New constructs a memory attached to the event queue.
func New(q *sim.EventQueue, p Params) (*Memory, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.WriteFailProb > 0 && p.WriteRetryLimit == 0 {
		p.WriteRetryLimit = DefaultWriteRetryLimit
	}
	m := &Memory{q: q, p: p, geo: NewGeometry(p), store: NewStore()}
	if p.WriteFailProb > 0 {
		m.faultRNG = sim.NewRNG(p.FaultSeed)
	}
	for c := 0; c < p.Channels; c++ {
		ch := &channelState{banks: make([]*bankState, m.geo.BanksPerChannel())}
		for b := range ch.banks {
			ch.banks[b] = &bankState{}
		}
		ch.retryFn = func() {
			if !ch.retryArmed || q.Now() != ch.retryTime {
				return // stale: superseded by an earlier re-arm
			}
			ch.retryArmed = false
			m.issue(ch)
		}
		m.chans = append(m.chans, ch)
	}
	return m, nil
}

// getReq returns a pooled request with its closures pre-bound.
func (m *Memory) getReq() *request {
	if r := m.freeReqs; r != nil {
		m.freeReqs = r.next
		r.next = nil
		return r
	}
	r := &request{m: m}
	r.enqFn = func() {
		c := r.ch
		if r.write {
			c.writeQ = append(c.writeQ, r)
		} else {
			c.readQ = append(c.readQ, r)
		}
		r.m.kick(c)
	}
	r.compFn = func(now, _ uint64) {
		mm := r.m
		done, line, crit := r.done, r.line, r.crit
		mm.putReq(r)
		// Read the functional store at delivery time, not request time: the
		// value must reflect writes committed while the read was queued.
		mm.scratch = mm.store.ReadLine(line)
		done(crit, &mm.scratch)
	}
	return r
}

// putReq recycles a request into the pool, dropping its callback and queue
// references.
func (m *Memory) putReq(r *request) {
	r.done = nil
	r.bank = nil
	r.ch = nil
	r.next = m.freeReqs
	m.freeReqs = r
}

// Store exposes the functional backing store for preloading and oracle
// checks.
func (m *Memory) Store() *Store { return m.store }

// Stats returns the accumulated controller statistics (all channels).
func (m *Memory) Stats() *Stats { return &m.stats }

// Geometry returns the address decoder in use.
func (m *Memory) Geometry() Geometry { return m.geo }

func (m *Memory) place(line isa.LineID) (*channelState, *bankState) {
	pl := m.geo.Decode(line.Base)
	ch := m.chans[pl.Channel]
	return ch, ch.banks[pl.Rank*m.geo.banks+pl.Bank]
}

// Fill requests a line read. done is invoked when the critical word arrives
// (critical-word-first transfer, §IV-B(d)) with the full line data.
func (m *Memory) Fill(at uint64, line isa.LineID, done func(at uint64, data *[isa.WordsPerLine]uint64)) {
	if m.p.RowOnly && line.Orient == isa.Col {
		m.q.Failf("mem", "fill", sim.ErrInvalidAccess,
			"column fill %v on row-only memory (compile the workload for a 1-D hierarchy)", line)
		return
	}
	ch, bank := m.place(line)
	req := m.getReq()
	req.line, req.mask, req.write = line, 0, false
	req.arrive, req.done, req.bank, req.ch = at, done, bank, ch
	m.q.Schedule(at, req.enqFn)
}

// Writeback requests a line write of the words selected by mask.
//
// The data is committed to the functional store immediately, in call order:
// throughout the simulator, the order in which components invoke each other
// within an event is the logical (program-consistent) order, while the `at`
// parameters carry timing only. Committing at call time — rather than at the
// service cycle — preserves the ordered-transaction requirement of §IV-B(b)
// (writes ordered before overlapping reads) even when the controller and
// cache ports reorder service timing.
func (m *Memory) Writeback(at uint64, line isa.LineID, mask uint8, data [isa.WordsPerLine]uint64) {
	if m.p.RowOnly && line.Orient == isa.Col {
		m.q.Failf("mem", "writeback", sim.ErrInvalidAccess,
			"column writeback %v on row-only memory (compile the workload for a 1-D hierarchy)", line)
		return
	}
	if mask == 0 {
		return
	}
	m.store.WriteLine(line, mask, data) // functional commit in call order
	ch, bank := m.place(line)
	req := m.getReq()
	req.line, req.mask, req.write = line, mask, true
	req.arrive, req.done, req.bank, req.ch = at, nil, bank, ch
	m.q.Schedule(at, req.enqFn)
}

// kick runs the channel's issue loop. It is invoked on every arrival and
// re-scheduled when all candidate banks are busy; redundant invocations are
// cheap no-ops.
func (m *Memory) kick(ch *channelState) { m.issue(ch) }

// issue implements FR-FCFS-WQF: serve reads first-ready-first-come,
// switching to write-drain mode when the write queue crosses DrainHigh (or
// when no reads are pending), back below DrainLow.
func (m *Memory) issue(ch *channelState) {
	now := m.q.Now()
	for {
		if len(ch.writeQ) >= m.p.DrainHigh {
			ch.draining = true
		}
		if len(ch.writeQ) <= m.p.DrainLow {
			ch.draining = false
		}
		var queue *[]*request
		switch {
		case ch.draining && len(ch.writeQ) > 0:
			queue = &ch.writeQ
		case len(ch.readQ) > 0:
			queue = &ch.readQ
		case len(ch.writeQ) > 0:
			queue = &ch.writeQ
		default:
			return // idle
		}
		idx := pickFRFCFS(*queue, now)
		if idx < 0 {
			// All candidate banks busy: retry when the earliest frees up,
			// unless an equally-early retry is already scheduled.
			retry := ^uint64(0)
			for _, r := range *queue {
				if r.bank.nextFree < retry {
					retry = r.bank.nextFree
				}
			}
			if !ch.retryArmed || retry < ch.retryTime {
				ch.retryArmed, ch.retryTime = true, retry
				m.q.Schedule(retry, ch.retryFn)
			}
			return
		}
		req := (*queue)[idx]
		*queue = append((*queue)[:idx], (*queue)[idx+1:]...)
		m.serve(ch, req, now)
	}
}

// pickFRFCFS returns the oldest request that hits an open buffer and whose
// bank is free; failing that, the oldest request with a free bank; -1 if no
// bank is free.
func pickFRFCFS(queue []*request, now uint64) int {
	oldestReady := -1
	for i, r := range queue {
		if r.bank.nextFree > now {
			continue
		}
		if r.bank.lookup(r.line) {
			return i
		}
		if oldestReady < 0 {
			oldestReady = i
		}
	}
	return oldestReady
}

// serve computes the request's timeline and schedules completion.
func (m *Memory) serve(ch *channelState, req *request, now uint64) {
	p := &m.p
	bank := req.bank
	orient := req.line.Orient

	start := ch.cmd.Acquire(now, 1)
	if bank.nextFree > start {
		start = bank.nextFree
	}

	var arrayLat uint64
	if !p.ClosePage && bank.lookup(req.line) {
		m.stats.BufferHits[orient]++
		m.stats.Energy.BufferPJ += p.Energy.BufferHitPJ
		if m.tr.Enabled(obs.CatMem) {
			m.tr.Instant(start, obs.CatMem, "mem", "buffer_hit",
				obs.Fields{Addr: req.line.Base, Orient: int8(orient)})
		}
	} else {
		if !p.ClosePage && bank.anyOpen(orient) && len(bank.open[orient]) >= p.BuffersPerBank {
			arrayLat += p.Precharge
		}
		arrayLat += p.RCD
		m.stats.Activations[orient]++
		m.stats.Energy.ActivationPJ += p.Energy.ActivatePJ
		if m.tr.Enabled(obs.CatMem) {
			m.tr.Instant(start, obs.CatMem, "mem", "activate",
				obs.Fields{Addr: req.line.Base, Orient: int8(orient)})
		}
	}
	if orient == isa.Col {
		arrayLat += p.ColDecodeExtra
	}
	if !p.ClosePage {
		bank.insert(req.line, p.BuffersPerBank)
	}

	dataReady := start + arrayLat + p.CAS
	words := uint64(isa.WordsPerLine)
	if req.write {
		words = uint64(bits.OnesCount8(req.mask))
	}
	busTime := words * p.BusCyclesPerWord
	busStart := ch.bus.Acquire(dataReady, busTime)
	busEnd := busStart + busTime
	m.stats.Energy.BusPJ += float64(words) * p.Energy.BusWordPJ

	if req.write {
		m.stats.Writes[orient]++
		m.stats.BytesWritten += words * isa.WordSize
		m.stats.Energy.WritePJ += float64(words) * p.Energy.WriteWordPJ
		bank.nextFree = busEnd + p.WriteRec
		if m.tr.Enabled(obs.CatMem) {
			m.tr.Span(req.arrive, busEnd-req.arrive, obs.CatMem, "mem", "write",
				obs.Fields{Addr: req.line.Base, Orient: int8(orient), V: words})
		}
		if m.faultRNG != nil {
			bank.nextFree += m.injectWriteFaults(req, words)
		}
		m.putReq(req)
		return
	}

	m.stats.Reads[orient]++
	m.stats.BytesRead += words * isa.WordSize
	bank.nextFree = busEnd
	crit := busStart + p.CriticalWordBeats
	m.stats.ReadLatency += crit - req.arrive
	m.readLat.Observe(crit - req.arrive)
	if m.tr.Enabled(obs.CatMem) {
		m.tr.Span(req.arrive, crit-req.arrive, obs.CatMem, "mem", "read",
			obs.Fields{Addr: req.line.Base, Orient: int8(orient)})
	}
	req.crit = crit
	m.q.ScheduleArg(crit, req.compFn, 0)
}

// injectWriteFaults models the crosspoint array's verify-and-retry loop for
// one write burst: each attempt fails verification with probability
// WriteFailProb (seeded PRNG, deterministic); each retry re-drives the burst,
// occupying the bank for another WriteRec plus the controller's backoff and
// paying the write energy again. Returns the extra bank-busy cycles. A burst
// that exhausts WriteRetryLimit is a hard fault: the run aborts with
// sim.ErrWriteFault. Only called when injection is enabled.
func (m *Memory) injectWriteFaults(req *request, words uint64) (extra uint64) {
	p := &m.p
	retries := 0
	for m.faultRNG.Float64() < p.WriteFailProb {
		retries++
		if retries > p.WriteRetryLimit {
			m.stats.WriteFaults++
			if m.tr.Enabled(obs.CatFault) {
				m.tr.Instant(m.q.Now(), obs.CatFault, "mem", "write_fault",
					obs.Fields{Addr: req.line.Base, Orient: int8(req.line.Orient), V: uint64(retries)})
			}
			m.q.Failf("mem", "write", sim.ErrWriteFault,
				"line %v: verify failed %d times (prob=%g, limit=%d)",
				req.line, retries, p.WriteFailProb, p.WriteRetryLimit)
			return extra
		}
		m.stats.WriteRetries++
		if m.tr.Enabled(obs.CatFault) {
			m.tr.Instant(m.q.Now(), obs.CatFault, "mem", "write_retry",
				obs.Fields{Addr: req.line.Base, Orient: int8(req.line.Orient), V: uint64(retries)})
		}
		m.stats.Energy.WritePJ += float64(words) * p.Energy.WriteWordPJ
		extra += p.WriteRec + p.WriteRetryBackoff
	}
	return extra
}

// Peek returns the line's current backing-store contents. It is the
// bottom of the hierarchy's synchronous functional-data path and performs
// no timing-visible work.
func (m *Memory) Peek(line isa.LineID) [isa.WordsPerLine]uint64 {
	return m.store.ReadLine(line)
}

// QueueDepths reports current read/write queue occupancy summed over
// channels (used by tests and debugging).
func (m *Memory) QueueDepths() (reads, writes int) {
	for _, ch := range m.chans {
		reads += len(ch.readQ)
		writes += len(ch.writeQ)
	}
	return reads, writes
}
