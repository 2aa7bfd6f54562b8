package core

import (
	"context"
	"fmt"
	"strings"

	"mdacache/internal/isa"
	"mdacache/internal/mem"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
)

// Machine is a fully-wired simulated system: one or more CPUs, the cache
// hierarchy and MDA main memory sharing one event queue. Every machine has
// one wiring (DESIGN §11): each core gets a private L1 behind a snoop hub
// over the shared L2/LLC. A single core is a group of one.
type Machine struct {
	Cfg    Config
	Q      *sim.EventQueue
	CPU    *CPU    // core 0 (== CPUs[0])
	CPUs   []*CPU  // all cores, ascending core ID
	Levels []Level // private L1s (one per core) followed by the shared levels
	Memory *mem.Memory

	// Registry is the machine's metrics registry: every component counter
	// (cache levels, memory controller, CPU) under a canonical name, plus
	// histograms only the registry carries (fill/read latencies). Per-machine
	// state — never package-level — so concurrent sweep workers stay
	// deterministic.
	Registry *obs.Registry

	running    bool
	pendingOcc []OccupancySample
	eventsRun  uint64 // events executed by the run loop ("sim.events")
}

// Build wires the design point described by cfg.
func Build(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q := &sim.EventQueue{}
	memory, err := mem.New(q, cfg.Mem)
	if err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg, Q: q, Memory: memory}

	params := []CacheParams{cfg.L1, cfg.L2}
	if cfg.L3.SizeBytes > 0 {
		params = append(params, cfg.L3)
	}
	llc := len(params) - 1

	// Shared levels (L2..LLC) bottom-up, the snoop hub on top of them, then
	// one private L1 and one CPU per core above the hub. A single core is a
	// group of one; it keeps the names "cpu"/"L1" and the global cache
	// ports, so its results are those of the paper's one-core machine.
	cores := max(cfg.Cores, 1)
	var below Backend = memory
	shared := make([]Level, llc)
	for i := llc; i >= 1; i-- {
		lvl, err := buildLevel(q, cfg.Design, params[i], i == llc, below)
		if err != nil {
			return nil, err
		}
		if cores > 1 {
			lvl.ctl().EnableSetArbitration()
		}
		shared[i-1] = lvl
		below = lvl
	}
	hub := &snoopHub{below: below}
	group := &coreGroup{}
	for i := 0; i < cores; i++ {
		p := params[0]
		cpuName := "cpu"
		if cores > 1 {
			p.Name = fmt.Sprintf("L1c%d", i)
			cpuName = fmt.Sprintf("cpu%d", i)
		}
		port := &hubPort{hub: hub, core: i}
		lvl, err := buildLevel(q, cfg.Design, p, false, port)
		if err != nil {
			return nil, err
		}
		lvl.ctl().onWrite = port.storeSnoop
		hub.l1s = append(hub.l1s, lvl)
		m.Levels = append(m.Levels, lvl)
		cpu := NewCPU(q, lvl, cfg.Window)
		cpu.coreID = i
		cpu.name = cpuName
		cpu.group = group
		group.cpus = append(group.cpus, cpu)
	}
	m.CPUs = group.cpus
	m.CPU = m.CPUs[0]
	m.Levels = append(m.Levels, shared...)

	// Observability: the registry is always on (it aliases counters the
	// components increment anyway); the tracer is cfg.Tracer, nil meaning
	// off at the cost of one nil check per event site.
	reg := obs.NewRegistry()
	m.Registry = reg
	memory.Instrument(reg, cfg.Tracer)
	for _, lvl := range m.Levels {
		if in, ok := lvl.(instrumentable); ok {
			in.Instrument(reg, cfg.Tracer)
		}
	}
	if cores > 1 {
		hub.Instrument(reg, cfg.Tracer)
	}
	for _, cpu := range m.CPUs {
		cpu.instrument(reg, cfg.Tracer)
	}
	reg.Counter("sim.events", &m.eventsRun)
	return m, nil
}

// cacheLevel is a level built by buildLevel: a line or tile array over the
// shared controller.
type cacheLevel interface {
	Level
	snooper
	ctl() *cacheCtl
}

func buildLevel(q *sim.EventQueue, d Design, p CacheParams, isLLC bool, below Backend) (cacheLevel, error) {
	switch d {
	case D0Baseline:
		return NewCache1P(q, p, false, below)
	case D1DiffSet, D1SameSet:
		return NewCache1P(q, p, true, below)
	case D2Sparse, D2Dense:
		if isLLC {
			return NewCache2P(q, p, d == D2Dense, below)
		}
		return NewCache1P(q, p, true, below)
	case D3AllTile:
		return NewCache2P(q, p, false, below)
	default:
		return nil, fmt.Errorf("core: unknown design %v", d)
	}
}

// OccupancySample is one Fig. 15 data point: per-level counts of valid row-
// and column-oriented lines.
type OccupancySample struct {
	Cycle uint64
	Row   []int
	Col   []int
}

// ColFraction returns column lines / total lines at level i (0 when empty).
func (s OccupancySample) ColFraction(i int) float64 {
	total := s.Row[i] + s.Col[i]
	if total == 0 {
		return 0
	}
	return float64(s.Col[i]) / float64(total)
}

// Results summarises one simulation run.
type Results struct {
	Cycles      uint64
	Ops         uint64
	Vectors     uint64
	Loads       uint64
	Stores      uint64
	OrderStalls uint64 // ops held by the §IV-B overlap-ordering rule
	Levels      []LevelStats
	Mem         mem.Stats
	Occupancy   []OccupancySample

	// Metrics is the registry snapshot at end of run: the same counters as
	// Levels/Mem under canonical names, plus registry-only metrics
	// (latency histograms, event counts). Deterministic and part of every
	// checkpoint; the determinism harness diffs it across worker counts.
	Metrics obs.Snapshot
}

// LLC returns the last-level cache's stats.
func (r *Results) LLC() *LevelStats { return &r.Levels[len(r.Levels)-1] }

// L1 returns the first-level cache's stats.
func (r *Results) L1() *LevelStats { return &r.Levels[0] }

// watchdogStride is how many events the run loop executes between watchdog
// checks (context deadline, cycle budget). Large enough that the check cost
// vanishes, small enough that a runaway simulation is caught promptly.
const watchdogStride = 1 << 16

// RunTraces drives the machine with one trace per core (core i consumes
// traces[i]) to completion and returns the results. A Machine is
// single-use: build a fresh one per run.
//
// Abnormal conditions return a *sim.Error instead of panicking: a hierarchy
// that stops making progress yields sim.ErrDeadlock with a diagnostic dump
// (see StallDiag), a run exceeding Cfg.MaxCycles yields sim.ErrCycleLimit,
// and structural violations reported by components (sim.ErrInvalidAccess,
// sim.ErrWriteFault) propagate as recorded.
func (m *Machine) RunTraces(traces ...isa.TraceReader) (*Results, error) {
	return m.RunTracesCtx(context.Background(), traces...)
}

// RunTracesCtx is RunTraces under a context: cancellation or a deadline
// aborts the simulation with sim.ErrTimeout (checked every watchdogStride
// events), so a sweep can bound the wall-clock cost of any single design
// point. The run ends when every core has completed its trace;
// Results.Cycles is the completion cycle of the last core to finish.
func (m *Machine) RunTracesCtx(ctx context.Context, traces ...isa.TraceReader) (*Results, error) {
	defer func() {
		for _, t := range traces {
			if c, ok := t.(isa.Closer); ok {
				c.Close()
			}
		}
	}()
	if len(traces) != len(m.CPUs) {
		return nil, fmt.Errorf("core: machine has %d cores but got %d traces", len(m.CPUs), len(traces))
	}
	var end uint64
	remaining := len(m.CPUs)
	m.running = true
	for i, cpu := range m.CPUs {
		cpu.Start(traces[i], func(endCycle uint64) {
			if endCycle > end {
				end = endCycle
			}
			remaining--
			if remaining == 0 {
				m.running = false
			}
		})
	}
	if iv := m.Cfg.OccupancySampleInterval; iv > 0 {
		var sampler func()
		res := &m.pendingOcc
		sampler = func() {
			if !m.running {
				return
			}
			s := OccupancySample{Cycle: m.Q.Now()}
			for _, lvl := range m.Levels {
				r, c := lvl.Occupancy()
				s.Row = append(s.Row, r)
				s.Col = append(s.Col, c)
			}
			*res = append(*res, s)
			m.Q.After(iv, sampler)
		}
		m.Q.After(iv, sampler)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, m.stallErr(sim.ErrTimeout, err.Error())
		}
		n := m.Q.RunBounded(m.Cfg.MaxCycles, watchdogStride)
		m.eventsRun += uint64(n)
		if err := m.Q.Err(); err != nil {
			return nil, err
		}
		if n < watchdogStride {
			break // queue drained or cycle budget reached
		}
	}
	if m.Cfg.MaxCycles != 0 && m.Q.Pending() > 0 {
		return nil, m.stallErr(sim.ErrCycleLimit, "")
	}
	if m.running {
		return nil, m.stallErr(sim.ErrDeadlock, "")
	}
	return m.results(end), nil
}

// stallErr wraps a watchdog sentinel in a sim.Error carrying the machine's
// stall diagnostics.
func (m *Machine) stallErr(sentinel error, note string) error {
	detail := m.Diagnose().String()
	if note != "" {
		detail = note + "; " + detail
	}
	return &sim.Error{
		Cycle:     m.Q.Now(),
		Component: "hierarchy",
		Op:        "run",
		Err:       sentinel,
		Detail:    detail,
	}
}

// MSHRSnapshot is one cache level's in-flight miss count at stall time.
type MSHRSnapshot struct {
	Level    string
	InFlight int
}

// CoreSnapshot is one core's pending-op summary at stall time.
type CoreSnapshot struct {
	Name     string
	InFlight int    // ops in this core's out-of-order window
	Held     string // the parked op ("" when none), e.g. "store@0x1240(row)"
}

// StallDiag captures where outstanding work was stuck when a run aborted:
// event-queue depth, the CPUs' in-flight windows, per-level MSHR occupancy
// and the memory controller's queue depths. It is embedded (via String) in
// the Detail of every watchdog sim.Error.
type StallDiag struct {
	Cycle       uint64
	Pending     int // scheduled-but-unrun events
	CPUInFlight int // ops in the out-of-order windows (all cores)
	CPUHeld     bool
	Cores       []CoreSnapshot // per-core summaries (multi-core machines only)
	MSHRs       []MSHRSnapshot
	MemReadQ    int
	MemWriteQ   int
}

// String renders the diagnostics on one line.
func (d StallDiag) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d pending-events=%d cpu-inflight=%d cpu-held=%v",
		d.Cycle, d.Pending, d.CPUInFlight, d.CPUHeld)
	for _, c := range d.Cores {
		fmt.Fprintf(&b, " %s-inflight=%d", c.Name, c.InFlight)
		if c.Held != "" {
			fmt.Fprintf(&b, " %s-held=%s", c.Name, c.Held)
		}
	}
	for _, s := range d.MSHRs {
		fmt.Fprintf(&b, " %s-mshr=%d", s.Level, s.InFlight)
	}
	fmt.Fprintf(&b, " mem-readq=%d mem-writeq=%d", d.MemReadQ, d.MemWriteQ)
	return b.String()
}

// heldSummary renders a core's parked op for stall diagnostics.
func heldSummary(c *CPU) string {
	if !c.Held() {
		return ""
	}
	op := c.HeldOp()
	kind := "load"
	if op.Kind == isa.Store {
		kind = "store"
	}
	o := "row"
	if op.Orient == isa.Col {
		o = "col"
	}
	if op.Vector {
		kind = "v" + kind
	}
	return fmt.Sprintf("%s@%#x(%s)", kind, op.Addr, o)
}

// Diagnose snapshots the machine's outstanding-work state. On multi-core
// machines every core's pending-op state is reported individually (Cores);
// the flat CPUInFlight/CPUHeld fields aggregate across cores so the headline
// format stays the same.
func (m *Machine) Diagnose() StallDiag {
	d := StallDiag{
		Cycle:   m.Q.Now(),
		Pending: m.Q.Pending(),
	}
	for _, c := range m.CPUs {
		d.CPUInFlight += c.InFlight()
		if c.Held() {
			d.CPUHeld = true
		}
		if len(m.CPUs) > 1 {
			d.Cores = append(d.Cores, CoreSnapshot{
				Name: c.name, InFlight: c.InFlight(), Held: heldSummary(c),
			})
		}
	}
	for _, lvl := range m.Levels {
		d.MSHRs = append(d.MSHRs, MSHRSnapshot{Level: lvl.Stats().Name, InFlight: lvl.MSHRInFlight()})
	}
	d.MemReadQ, d.MemWriteQ = m.Memory.QueueDepths()
	return d
}

func (m *Machine) results(end uint64) *Results {
	r := &Results{
		Cycles:    end,
		Mem:       *m.Memory.Stats(),
		Occupancy: m.pendingOcc,
	}
	for _, cpu := range m.CPUs {
		r.Ops += cpu.Ops
		r.Vectors += cpu.Vectors
		r.Loads += cpu.ByKind[isa.Load]
		r.Stores += cpu.ByKind[isa.Store]
		r.OrderStalls += cpu.OrderStalls
	}
	for _, lvl := range m.Levels {
		r.Levels = append(r.Levels, *lvl.Stats())
	}
	r.Metrics = m.Registry.Snapshot()
	return r
}

// DrainAll flushes every dirty line down to main memory and settles the
// event queue. Used by functional-verification tests before comparing the
// memory's backing store against an oracle.
func (m *Machine) DrainAll() {
	at := m.Q.Now()
	for _, lvl := range m.Levels {
		lvl.Drain(at)
	}
	m.Q.Run(0)
}
