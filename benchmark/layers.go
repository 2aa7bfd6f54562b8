package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
	"mdacache/internal/experiments"
	"mdacache/internal/isa"
	"mdacache/internal/workloads"
)

// layerCost accumulates host cost per layer over the runs of a traced
// segment. Allocation deltas come from runtime.ReadMemStats, which stops the
// world, so they are only taken when a tracer is attached.
type layerCost struct {
	buildNs, buildCalls         int64 // workloads.Build or RequestStreams
	compileNs, compileCalls     int64
	compileAlloc                uint64
	coreBuildNs, coreBuildCalls int64
	coreBuildAlloc              uint64
	simNs, simRuns              int64
	simAlloc                    uint64
	simEvents, simL1Accesses    uint64
	traceNs, traceOps           int64 // drained Program.Trace() outside a simulation
	demuxNs, demuxOps           int64 // drained ShardTrace(prog.Trace(), cores)
	reqGenNs, reqGenOps         int64 // drained RequestStreams outside a simulation
	probed                      map[string]bool
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runLayers executes one spec by calling each layer's public functions in
// the order experiments.Run does, with a span around every call, so its
// Results must be identical to experiments.Run's (the reference check holds
// it to that). wrap, when non-nil, decorates the per-core traces before the
// simulation consumes them. With a nil tracer and nil cost it is the plain
// untraced path. A traced run of a spec not yet probed in this segment is
// followed by a probe of its trace producer; the returned duration covers
// the run alone.
func runLayers(tr *tracer, lc *layerCost, run string, spec experiments.RunSpec, wrap func([]isa.TraceReader) []isa.TraceReader) (*core.Results, time.Duration, error) {
	t0 := time.Now()
	res, prog, cores, err := simulateLayers(tr, lc, run, spec, wrap)
	d := time.Since(t0)
	if err == nil && tr != nil && lc != nil {
		lc.probe(tr, run, spec, prog, cores)
	}
	return res, d, err
}

func simulateLayers(tr *tracer, lc *layerCost, run string, spec experiments.RunSpec, wrap func([]isa.TraceReader) []isa.TraceReader) (*core.Results, *compiler.Program, int, error) {
	root := tr.begin("bench.run", run, 0)
	defer tr.end(root)
	measure := tr != nil && lc != nil
	var alloc0 uint64
	start := func() {
		if measure {
			alloc0 = totalAlloc()
		}
	}
	allocSince := func() uint64 {
		if measure {
			return totalAlloc() - alloc0
		}
		return 0
	}

	sp := tr.begin("experiments.RunSpec.Config", run, root)
	cfg, err := spec.Config()
	tr.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}

	var prog *compiler.Program
	var traces []isa.TraceReader
	if spec.Workload != "" {
		cores := max(spec.Cores, 1)
		sp = tr.begin("workloads.RequestStreams", run, root)
		traces, err = workloads.RequestStreams(workloads.ReqSpec{
			Workload: spec.Workload, N: spec.N, Cores: cores, Clients: spec.Clients,
			Ops: spec.Ops, Zipf: spec.Zipf, ReadRatio: spec.ReadRatio,
			Seed: spec.WorkloadSeed, Logical2D: spec.Design.Logical2D(),
		})
		d := tr.end(sp)
		if err != nil {
			return nil, nil, 0, err
		}
		if lc != nil {
			lc.buildNs += int64(d)
			lc.buildCalls++
		}
	} else {
		sp = tr.begin("workloads.Build", run, root)
		kern, err := workloads.Build(spec.Bench, spec.N)
		d := tr.end(sp)
		if err != nil {
			return nil, nil, 0, err
		}
		if lc != nil {
			lc.buildNs += int64(d)
			lc.buildCalls++
		}

		start()
		sp = tr.begin("compiler.Compile", run, root)
		prog, err = compiler.Compile(kern, compiler.Target{Logical2D: spec.Design.Logical2D(), Layout: spec.LayoutOverride})
		d = tr.end(sp)
		if err != nil {
			return nil, nil, 0, err
		}
		if lc != nil {
			lc.compileNs += int64(d)
			lc.compileCalls++
			lc.compileAlloc += allocSince()
		}
	}

	start()
	sp = tr.begin("core.Build", run, root)
	m, err := core.Build(cfg)
	d := tr.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}
	if lc != nil {
		lc.coreBuildNs += int64(d)
		lc.coreBuildCalls++
		lc.coreBuildAlloc += allocSince()
	}

	start()
	if prog != nil {
		if len(m.CPUs) > 1 {
			sp = tr.begin("experiments.ShardTrace", run, root)
			traces = experiments.ShardTrace(prog.Trace(), len(m.CPUs))
			tr.end(sp)
		} else {
			sp = tr.begin("compiler.Program.Trace", run, root)
			traces = []isa.TraceReader{prog.Trace()}
			tr.end(sp)
		}
	}
	if wrap != nil {
		traces = wrap(traces)
	}
	sp = tr.begin("core.Machine.RunTraces", run, root)
	res, err := m.RunTraces(traces...)
	d = tr.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}
	if lc != nil {
		lc.simNs += int64(d)
		lc.simRuns++
		lc.simAlloc += allocSince()
		events, _ := res.Metrics.Counter("sim.events")
		lc.simEvents += events
		for _, l := range res.Levels {
			if strings.HasPrefix(l.Name, "L1") {
				lc.simL1Accesses += l.Accesses
			}
		}
	}
	return res, prog, len(m.CPUs), nil
}

// probe times the trace producers on their own, outside any simulation:
// the compiled trace, the multi-core demux over it, or the request streams.
// Each distinct spec is probed once per segment. Probe spans are roots of
// their own "probe" layer, so they add nothing to any layer's self time.
func (lc *layerCost) probe(tr *tracer, run string, spec experiments.RunSpec, prog *compiler.Program, cores int) {
	key := experiments.SpecKey(spec)
	if lc.probed[key] {
		return
	}
	if lc.probed == nil {
		lc.probed = make(map[string]bool)
	}
	lc.probed[key] = true
	switch {
	case prog != nil && cores > 1:
		sp := tr.begin("probe.experiments.ShardTrace", run, 0)
		n := drainAll(experiments.ShardTrace(prog.Trace(), cores))
		lc.demuxNs += int64(tr.end(sp))
		lc.demuxOps += n
	case prog != nil:
		sp := tr.begin("probe.compiler.Program.Trace", run, 0)
		n := drainAll([]isa.TraceReader{prog.Trace()})
		lc.traceNs += int64(tr.end(sp))
		lc.traceOps += n
	default:
		sp := tr.begin("probe.workloads.RequestStreams", run, 0)
		streams, err := workloads.RequestStreams(workloads.ReqSpec{
			Workload: spec.Workload, N: spec.N, Cores: max(spec.Cores, 1), Clients: spec.Clients,
			Ops: spec.Ops, Zipf: spec.Zipf, ReadRatio: spec.ReadRatio,
			Seed: spec.WorkloadSeed, Logical2D: spec.Design.Logical2D(),
		})
		if err != nil {
			tr.end(sp)
			return
		}
		n := drainAll(streams)
		lc.reqGenNs += int64(tr.end(sp))
		lc.reqGenOps += n
	}
}

// drainAll pulls every reader to exhaustion, round-robin so that a demux
// whose shards buffer against a high-water mark never waits on an unread
// sibling, and returns the op count.
func drainAll(rs []isa.TraceReader) int64 {
	var n int64
	live := len(rs)
	done := make([]bool, len(rs))
	for live > 0 {
		for i, r := range rs {
			if done[i] {
				continue
			}
			for {
				if _, ok := r.Next(); ok {
					n++
					continue
				}
				if b, ok := r.(isa.Blocker); ok && b.Blocked() {
					break
				}
				done[i] = true
				live--
				break
			}
		}
	}
	for _, r := range rs {
		if c, ok := r.(isa.Closer); ok {
			c.Close()
		}
	}
	return n
}

// metrics turns a traced segment's costs into per-layer metrics.
func (lc *layerCost) metrics(m map[string]float64) {
	m["workloads.build_ms"] = ratio(float64(lc.buildNs), float64(lc.buildCalls)) / 1e6
	m["workloads.request_gen_ns_per_op"] = ratio(float64(lc.reqGenNs), float64(lc.reqGenOps))
	m["compiler.compile_ms"] = ratio(float64(lc.compileNs), float64(lc.compileCalls)) / 1e6
	m["compiler.compile_alloc_mb"] = ratio(float64(lc.compileAlloc), float64(lc.compileCalls)) / (1 << 20)
	m["compiler.trace_ns_per_op"] = ratio(float64(lc.traceNs), float64(lc.traceOps))
	m["experiments.demux_ns_per_op"] = ratio(float64(lc.demuxNs), float64(lc.demuxOps))
	m["core.build_ms"] = ratio(float64(lc.coreBuildNs), float64(lc.coreBuildCalls)) / 1e6
	m["core.build_alloc_mb"] = ratio(float64(lc.coreBuildAlloc), float64(lc.coreBuildCalls)) / (1 << 20)
	m["core.simulate_ms"] = ratio(float64(lc.simNs), float64(lc.simRuns)) / 1e6
	m["core.simulate_alloc_mb"] = ratio(float64(lc.simAlloc), float64(lc.simRuns)) / (1 << 20)
	m["sim.ns_per_event"] = ratio(float64(lc.simNs), float64(lc.simEvents))
	m["core.ns_per_l1_access"] = ratio(float64(lc.simNs), float64(lc.simL1Accesses))
}

// selfTimeMetrics reports each layer's self time per unit of work (a
// kernel-sweep pass, a kv run, a serve job).
func selfTimeMetrics(m map[string]float64, spans []span, units int) {
	self := selfTimes(spans)
	for _, l := range []string{"workloads", "compiler", "experiments", "core", "serve"} {
		m[l+".self_ms"] = ratio(float64(self[l].Nanoseconds()), float64(units)) / 1e6
	}
}

// modelCounts sums the modelled machine's counters over a fixed set of
// runs, so the totals repeat exactly for a given seed.
type modelCounts struct {
	orderStalls                              uint64
	acc, hits                                [3]uint64 // L1 (all cores), L2, L3
	l1MSHRStalls, l1Coalesced, l1ExtraProbes uint64
	llcDupEvict, llcSetConflicts, llcArb     uint64
	snoopFlushes, snoopInvalidates           uint64
	memReads, memWrites                      [2]uint64
	memBufHits, memActivations, memReadLat   uint64
	events                                   uint64
}

func (c *modelCounts) add(r *core.Results) {
	c.orderStalls += r.OrderStalls
	for _, l := range r.Levels {
		var lvl int
		switch {
		case strings.HasPrefix(l.Name, "L1"):
			lvl = 0
			c.l1MSHRStalls += l.MSHRStalls
			c.l1Coalesced += l.MSHRCoalesced
			c.l1ExtraProbes += l.ExtraTagProbes
		case strings.HasPrefix(l.Name, "L2"):
			lvl = 1
		case strings.HasPrefix(l.Name, "L3"):
			lvl = 2
		default:
			panic(fmt.Sprintf("unknown cache level %q", l.Name))
		}
		c.acc[lvl] += l.Accesses
		c.hits[lvl] += l.Hits
	}
	llc := r.LLC()
	c.llcDupEvict += llc.DuplicateEvictions
	c.llcSetConflicts += llc.SetConflicts
	c.llcArb += llc.SetArbDelay
	f, _ := r.Metrics.Counter("coherence.snoop_flushes")
	inv, _ := r.Metrics.Counter("coherence.snoop_invalidates")
	c.snoopFlushes += f
	c.snoopInvalidates += inv
	for o := 0; o < 2; o++ {
		c.memReads[o] += r.Mem.Reads[o]
		c.memWrites[o] += r.Mem.Writes[o]
		c.memBufHits += r.Mem.BufferHits[o]
		c.memActivations += r.Mem.Activations[o]
	}
	c.memReadLat += r.Mem.ReadLatency
	ev, _ := r.Metrics.Counter("sim.events")
	c.events += ev
}

func (c *modelCounts) metrics(m map[string]float64) {
	m["sim.events"] = float64(c.events)
	m["cpu.order_stalls"] = float64(c.orderStalls)
	for i, name := range []string{"l1", "l2", "l3"} {
		m[name+".hit_rate"] = ratio(float64(c.hits[i]), float64(c.acc[i]))
		m[name+".accesses"] = float64(c.acc[i])
	}
	m["l1.mshr_stalls"] = float64(c.l1MSHRStalls)
	m["l1.mshr_coalesced"] = float64(c.l1Coalesced)
	m["l1.extra_tag_probes"] = float64(c.l1ExtraProbes)
	m["llc.duplicate_evictions"] = float64(c.llcDupEvict)
	m["llc.set_conflicts"] = float64(c.llcSetConflicts)
	m["llc.set_arb_delay"] = float64(c.llcArb)
	m["coherence.snoop_flushes"] = float64(c.snoopFlushes)
	m["coherence.snoop_invalidates"] = float64(c.snoopInvalidates)
	m["mem.reads.row"] = float64(c.memReads[0])
	m["mem.reads.col"] = float64(c.memReads[1])
	m["mem.writes.row"] = float64(c.memWrites[0])
	m["mem.writes.col"] = float64(c.memWrites[1])
	m["mem.buffer_hit_rate"] = ratio(float64(c.memBufHits), float64(c.memBufHits+c.memActivations))
	m["mem.accesses"] = float64(c.memBufHits + c.memActivations)
	m["mem.avg_read_latency_cycles"] = ratio(float64(c.memReadLat), float64(c.memReads[0]+c.memReads[1]))
}
