package mem

import (
	"math/bits"

	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
)

// Stats accumulates memory-controller activity, indexed by orientation where
// relevant ([isa.Row] / [isa.Col]).
//
// Internally the controller accumulates per channel and merges in ascending
// channel order (see Memory.Stats): integer counters are order-free, and the
// fixed merge order makes the float energy sums bit-identical no matter how
// channels were grouped into shards — the property the sharded-equivalence
// harness checks.
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

// add accumulates o into s, in the caller's iteration order.
func (s *Stats) add(o *Stats) {
	for i := 0; i < 2; i++ {
		s.Reads[i] += o.Reads[i]
		s.Writes[i] += o.Writes[i]
		s.BufferHits[i] += o.BufferHits[i]
		s.Activations[i] += o.Activations[i]
	}
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.ReadLatency += o.ReadLatency
	s.WriteRetries += o.WriteRetries
	s.WriteFaults += o.WriteFaults
	s.Energy.ActivationPJ += o.Energy.ActivationPJ
	s.Energy.BufferPJ += o.Energy.BufferPJ
	s.Energy.BusPJ += o.Energy.BusPJ
	s.Energy.WritePJ += o.Energy.WritePJ
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

	// Pooling: requests are recycled via per-channel intrusive freelists, and
	// the two closures each request needs (queue insertion, read completion)
	// are bound once at creation, so steady-state traffic allocates nothing.
	// Per-channel pools keep recycling shard-local: a write request released
	// by a shard goroutine goes back to its own channel's list, never racing
	// the front side (which only allocates between shard windows).
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

// channelState is one channel's complete controller state. Everything a
// channel's timing decisions read or write lives here (queues, banks, retry
// timer, stats, fault RNG) or in its bank states — channel behaviour is a
// pure function of the channel's own arrival stream, which is why channels
// can be simulated on separate shard queues without changing any outcome
// (DESIGN §13).
type channelState struct {
	idx     int32           // channel index: canonical merge/tiebreak key
	q       *sim.EventQueue // queue this channel's events run on (the front queue in legacy mode, the owning shard's in sharded mode)
	sh      *memShard       // owning shard; nil in legacy mode
	stats   *Stats          // legacy: aliases Memory.merged (shared, live view); sharded: channel-owned accumulator
	readLat *obs.Histogram  // legacy: aliases the registry histogram (nil until Instrument); sharded: channel-owned
	rng     *sim.RNG        // fault RNG: the shared Memory RNG in legacy mode, channel-seeded in sharded mode
	out     []*request      // sharded mode: read completions produced this window, in service order

	freeReqs *request

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
//
// The controller runs in one of two modes. In legacy mode (New) every
// channel's events share the system event queue — the engine the rest of the
// simulator has always used. In sharded mode (NewSharded) channels are
// partitioned across independent event queues that the machine's epoch
// driver advances in lockstep windows, with completions merged back in
// canonical (cycle, channel, seq) order at each barrier (DESIGN §13).
type Memory struct {
	q     *sim.EventQueue // front/system queue
	p     Params
	geo   Geometry
	store *Store
	chans []*channelState

	// merged is the Stats view returned by Stats() and aliased by the
	// registry. In legacy mode every channel accumulates directly into it, so
	// it is a live view (the historical contract); in sharded mode channels
	// own accumulators and refreshStats rebuilds merged from them in
	// ascending channel order — the canonical float-summation order that
	// makes energy sums invariant to the channel→shard partition.
	merged Stats

	// faultRNG is the single shared fault RNG of legacy mode (every channel's
	// rng aliases it, preserving the historical global draw order); nil in
	// sharded mode, where channels own seed-derived RNGs.
	faultRNG *sim.RNG

	// scratch is the line buffer handed to read completions. Safe to share:
	// the Backend.Fill contract says the pointee is valid only for the
	// duration of the callback, each completion refills it first, and
	// completions always run on the front queue in both modes.
	scratch [isa.WordsPerLine]uint64

	tr      *obs.Tracer    // nil = tracing off
	readLat *obs.Histogram // merged arrive→critical-word latency (registry-only)

	eng *ShardEngine // nil in legacy mode

	// Sharded-mode delivery table: completions cross the barrier as indexes
	// into deliv (ScheduleArg carries one word), delivFn resolves and runs
	// them on the front queue. Freed indexes are recycled, so steady-state
	// delivery allocates nothing.
	deliv     []*request
	delivFree []int32
	delivFn   func(now, arg uint64)
}

// Instrument publishes the controller's counters in the registry — aliasing
// the merged Stats view, refreshed from the per-channel accumulators on
// every snapshot — and attaches the tracer. Names are "mem.*".
func (m *Memory) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	m.tr = tr
	s := &m.merged
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
	if m.eng == nil {
		// Legacy: channels observe straight into the registry histogram.
		for _, ch := range m.chans {
			ch.readLat = m.readLat
		}
	} else {
		reg.OnSnapshot(m.refreshStats)
	}
}

// New constructs a memory attached to the event queue (legacy single-queue
// mode).
func New(q *sim.EventQueue, p Params) (*Memory, error) {
	return newMemory(q, p, 0, 0, false)
}

// NewSharded constructs a memory whose channels are partitioned round-robin
// across `shards` independent event queues, advanced by the machine's epoch
// driver (see ShardEngine). quantum is the epoch length in cycles; 0 selects
// the maximum safe value, the fill lookahead CAS+CriticalWordBeats. More
// shards than channels leaves the excess shards permanently idle.
//
// Tracing restriction: the mem and fault trace categories are emitted from
// shard execution and are therefore unavailable in sharded mode; callers
// must not attach a tracer with those categories enabled (core.Build
// enforces this for machines).
func NewSharded(q *sim.EventQueue, p Params, shards int, quantum uint64, parallel bool) (*Memory, error) {
	if shards < 1 {
		return nil, paramErr("shard count must be >= 1")
	}
	if quantum == 0 {
		quantum = p.CAS + p.CriticalWordBeats
	}
	if max := p.CAS + p.CriticalWordBeats; quantum > max {
		return nil, paramErr("shard quantum exceeds the fill lookahead CAS+CriticalWordBeats")
	}
	return newMemory(q, p, shards, quantum, parallel)
}

func newMemory(q *sim.EventQueue, p Params, shards int, quantum uint64, parallel bool) (*Memory, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.WriteFailProb > 0 && p.WriteRetryLimit == 0 {
		p.WriteRetryLimit = DefaultWriteRetryLimit
	}
	m := &Memory{q: q, p: p, geo: NewGeometry(p), store: NewStore()}
	if p.WriteFailProb > 0 && shards == 0 {
		m.faultRNG = sim.NewRNG(p.FaultSeed)
	}
	for c := 0; c < p.Channels; c++ {
		ch := &channelState{idx: int32(c), q: q, banks: make([]*bankState, m.geo.BanksPerChannel())}
		if shards == 0 {
			ch.stats = &m.merged // shared live view, historical accumulation order
		} else {
			ch.stats = &Stats{}
			ch.readLat = &obs.Histogram{}
		}
		for b := range ch.banks {
			ch.banks[b] = &bankState{}
		}
		ch.retryFn = func() {
			if !ch.retryArmed || ch.q.Now() != ch.retryTime {
				return // stale: superseded by an earlier re-arm
			}
			ch.retryArmed = false
			m.issue(ch)
		}
		if p.WriteFailProb > 0 {
			if shards == 0 {
				ch.rng = m.faultRNG
			} else {
				// Channel-seeded RNG: fault draws become a channel-local
				// stream, invariant to how channels are grouped into shards.
				ch.rng = sim.NewRNG(p.FaultSeed ^ (0x9E3779B97F4A7C15 * uint64(c+1)))
			}
		}
		m.chans = append(m.chans, ch)
	}
	if shards > 0 {
		m.eng = newShardEngine(m, shards, quantum, parallel)
		m.delivFn = m.deliver
	}
	return m, nil
}

// deliver is the front-queue completion callback of sharded mode: it resolves
// the pending-table index, reads the functional store at delivery time (the
// same read-at-delivery rule as legacy compFn) and invokes the requester.
func (m *Memory) deliver(now, arg uint64) {
	r := m.deliv[arg]
	m.deliv[arg] = nil
	m.delivFree = append(m.delivFree, int32(arg))
	done, line := r.done, r.line
	m.putReq(r)
	m.scratch = m.store.ReadLine(line)
	done(now, &m.scratch)
}

// delivAlloc parks a completed read in the delivery table and returns its
// index (the one word ScheduleArg can carry across the barrier).
func (m *Memory) delivAlloc(r *request) uint64 {
	if n := len(m.delivFree); n > 0 {
		i := m.delivFree[n-1]
		m.delivFree = m.delivFree[:n-1]
		m.deliv[i] = r
		return uint64(i)
	}
	m.deliv = append(m.deliv, r)
	return uint64(len(m.deliv) - 1)
}

// Sharded returns the engine driving this memory's shard queues, or nil in
// legacy mode. The machine's run loop uses it to advance epochs.
func (m *Memory) Sharded() *ShardEngine { return m.eng }

// getReq returns a pooled request with its closures pre-bound.
func (m *Memory) getReq(ch *channelState) *request {
	if r := ch.freeReqs; r != nil {
		ch.freeReqs = r.next
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

// putReq recycles a request into its channel's pool, dropping its callback
// and queue references.
func (m *Memory) putReq(r *request) {
	ch := r.ch
	r.done = nil
	r.bank = nil
	r.ch = nil
	r.next = ch.freeReqs
	ch.freeReqs = r
}

// Store exposes the functional backing store for preloading and oracle
// checks.
func (m *Memory) Store() *Store { return m.store }

// refreshStats rebuilds the merged all-channel view from the per-channel
// accumulators in ascending channel order — the canonical float-summation
// order shared by every shard count. No-op in legacy mode, where merged is
// the live accumulation target itself.
func (m *Memory) refreshStats() {
	if m.eng == nil {
		return
	}
	s := Stats{}
	for _, ch := range m.chans {
		s.add(ch.stats)
	}
	m.merged = s
	if m.readLat != nil {
		m.readLat.Reset()
		for _, ch := range m.chans {
			m.readLat.Absorb(ch.readLat)
		}
	}
}

// Stats returns the accumulated controller statistics (all channels merged).
func (m *Memory) Stats() *Stats {
	m.refreshStats()
	return &m.merged
}

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
	req := m.getReq(ch)
	req.line, req.mask, req.write = line, 0, false
	req.arrive, req.done, req.bank, req.ch = at, done, bank, ch
	m.enqueue(ch, at, req)
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
	req := m.getReq(ch)
	req.line, req.mask, req.write = line, mask, true
	req.arrive, req.done, req.bank, req.ch = at, nil, bank, ch
	m.enqueue(ch, at, req)
}

// enqueue hands an arrival to the channel's queue: a direct schedule in
// legacy mode, the owning shard's inbox in sharded mode (injected at the next
// epoch barrier in this same call order — arrival order is front-determined
// and therefore shard-count-invariant).
func (m *Memory) enqueue(ch *channelState, at uint64, req *request) {
	if sh := ch.sh; sh != nil {
		sh.inbox = append(sh.inbox, arrival{at: at, req: req})
		return
	}
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
	now := ch.q.Now()
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
				ch.q.Schedule(retry, ch.retryFn)
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
		ch.stats.BufferHits[orient]++
		ch.stats.Energy.BufferPJ += p.Energy.BufferHitPJ
		if m.tr.Enabled(obs.CatMem) {
			m.tr.Instant(start, obs.CatMem, "mem", "buffer_hit",
				obs.Fields{Addr: req.line.Base, Orient: int8(orient)})
		}
	} else {
		if !p.ClosePage && bank.anyOpen(orient) && len(bank.open[orient]) >= p.BuffersPerBank {
			arrayLat += p.Precharge
		}
		arrayLat += p.RCD
		ch.stats.Activations[orient]++
		ch.stats.Energy.ActivationPJ += p.Energy.ActivatePJ
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
	ch.stats.Energy.BusPJ += float64(words) * p.Energy.BusWordPJ

	if req.write {
		ch.stats.Writes[orient]++
		ch.stats.BytesWritten += words * isa.WordSize
		ch.stats.Energy.WritePJ += float64(words) * p.Energy.WriteWordPJ
		bank.nextFree = busEnd + p.WriteRec
		if m.tr.Enabled(obs.CatMem) {
			m.tr.Span(req.arrive, busEnd-req.arrive, obs.CatMem, "mem", "write",
				obs.Fields{Addr: req.line.Base, Orient: int8(orient), V: words})
		}
		if ch.rng != nil {
			bank.nextFree += m.injectWriteFaults(ch, req, words)
		}
		m.putReq(req)
		return
	}

	ch.stats.Reads[orient]++
	ch.stats.BytesRead += words * isa.WordSize
	bank.nextFree = busEnd
	crit := busStart + p.CriticalWordBeats
	ch.stats.ReadLatency += crit - req.arrive
	ch.readLat.Observe(crit - req.arrive)
	if m.tr.Enabled(obs.CatMem) {
		m.tr.Span(req.arrive, crit-req.arrive, obs.CatMem, "mem", "read",
			obs.Fields{Addr: req.line.Base, Orient: int8(orient)})
	}
	req.crit = crit
	if ch.sh != nil {
		// Sharded: buffer the completion; the epoch barrier merges all
		// channels' completions in (crit, channel, seq) order and schedules
		// them onto the front queue. The quantum bound guarantees crit lands
		// in a later window, so delivery timing is exact.
		ch.out = append(ch.out, req)
		return
	}
	ch.q.ScheduleArg(crit, req.compFn, 0)
}

// injectWriteFaults models the crosspoint array's verify-and-retry loop for
// one write burst: each attempt fails verification with probability
// WriteFailProb (seeded PRNG, deterministic); each retry re-drives the burst,
// occupying the bank for another WriteRec plus the controller's backoff and
// paying the write energy again. Returns the extra bank-busy cycles. A burst
// that exhausts WriteRetryLimit is a hard fault: the run aborts with
// sim.ErrWriteFault. Only called when injection is enabled.
func (m *Memory) injectWriteFaults(ch *channelState, req *request, words uint64) (extra uint64) {
	p := &m.p
	retries := 0
	for ch.rng.Float64() < p.WriteFailProb {
		retries++
		if retries > p.WriteRetryLimit {
			ch.stats.WriteFaults++
			if m.tr.Enabled(obs.CatFault) {
				m.tr.Instant(ch.q.Now(), obs.CatFault, "mem", "write_fault",
					obs.Fields{Addr: req.line.Base, Orient: int8(req.line.Orient), V: uint64(retries)})
			}
			ch.q.Failf("mem", "write", sim.ErrWriteFault,
				"line %v: verify failed %d times (prob=%g, limit=%d)",
				req.line, retries, p.WriteFailProb, p.WriteRetryLimit)
			return extra
		}
		ch.stats.WriteRetries++
		if m.tr.Enabled(obs.CatFault) {
			m.tr.Instant(ch.q.Now(), obs.CatFault, "mem", "write_retry",
				obs.Fields{Addr: req.line.Base, Orient: int8(req.line.Orient), V: uint64(retries)})
		}
		ch.stats.Energy.WritePJ += float64(words) * p.Energy.WriteWordPJ
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
