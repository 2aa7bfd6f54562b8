package main

import (
	"fmt"
	"math/rand"
	"time"

	"mdacache/internal/core"
	"mdacache/internal/experiments"
	"mdacache/internal/isa"
)

const (
	simScale = 8
	simN     = 512 / simScale
	llcBytes = 1 << 20 // at paper scale; RunSpec.Scale shrinks it

	// kvOpsPerSecond sizes the kv-4core run from --seconds: about what this
	// simulator sustains on one 2-CPU host, so a run lasts roughly the
	// requested time. The op count, not the clock, ends the run, which keeps
	// every simulated statistic a pure function of (seed, seconds).
	kvOpsPerSecond = 600_000
	// kvSeeds is how many distinct request-stream seeds the kv workload
	// draws from (--seed modulo kvSeeds); reference.json holds each one.
	kvSeeds = 8
	// kvBlocks splits the kv run into equal op blocks, the unit its latency
	// percentiles are taken over.
	kvBlocks = 256
)

var (
	sweepBenches = []string{"sgemm", "strmm", "sobel", "htap2"}
	sweepDesigns = []core.Design{core.D0Baseline, core.D1DiffSet, core.D2Sparse}
	// paperNorm is the paper's geometric-mean cycles over 1P1L (Fig. 12).
	paperNorm = map[core.Design]float64{core.D1DiffSet: 0.36, core.D2Sparse: 0.35}
)

// sweepSpecs is the kernel-sweep list: every kernel on the three Fig. 12
// designs on one core, then on 1P2L with four cores (the ShardTrace path).
func sweepSpecs() []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, b := range sweepBenches {
		for _, d := range sweepDesigns {
			specs = append(specs, experiments.RunSpec{Bench: b, N: simN, Design: d, LLCBytes: llcBytes, Scale: simScale})
		}
	}
	for _, b := range sweepBenches {
		specs = append(specs, experiments.RunSpec{Bench: b, N: simN, Design: core.D1DiffSet, LLCBytes: llcBytes, Scale: simScale, Cores: 4})
	}
	return specs
}

// kvSpec is the kv-4core run for a seed and a run length.
func kvSpec(seed uint64, seconds float64) experiments.RunSpec {
	ops := max(int64(seconds*kvOpsPerSecond)/4096*4096, 4096)
	return experiments.RunSpec{
		Workload: "kv", N: simN, Design: core.D2Sparse, LLCBytes: llcBytes, Scale: simScale,
		Cores: 4, Clients: 16, Ops: ops, Zipf: 0.99, ReadRatio: 0.5,
		WorkloadSeed: seed%kvSeeds + 1,
	}
}

// refKey names a spec in reference.json.
func refKey(spec experiments.RunSpec) string {
	if spec.Workload != "" {
		return fmt.Sprintf("%s/seed=%d", spec, spec.WorkloadSeed)
	}
	return spec.String()
}

// simSetup is the set-up shared by the simulation workloads: validate the
// specs, load the reference, and run one small warm-up simulation so that
// lazy runtime set-up is not charged to the first measured run.
func simSetup(specs []experiments.RunSpec, warm experiments.RunSpec) (references, error) {
	for _, s := range specs {
		if _, err := s.Config(); err != nil {
			return nil, fmt.Errorf("%v: %w", s, err)
		}
	}
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	if _, err := experiments.Run(warm); err != nil {
		return nil, fmt.Errorf("warm-up %v: %w", warm, err)
	}
	return refs, nil
}

// sweepSegment is one measured window of kernel-sweep.
type sweepSegment struct {
	latMS  []float64 // per spec run
	ops    uint64
	runNs  int64 // summed run durations
	wall   float64
	passes int
	first  []*core.Results // the first pass, in spec order
	cost   layerCost
}

// measureSweep runs whole passes over specs, each pass in a seed-derived
// order, until seconds have passed and at least minRuns runs are done.
// Untraced runs go through experiments.Run; traced runs through runLayers.
func measureSweep(r *report, refs references, specs []experiments.RunSpec, seed uint64, seconds float64, minRuns int, tr *tracer) *sweepSegment {
	seg := &sweepSegment{first: make([]*core.Results, len(specs))}
	rng := rand.New(rand.NewSource(int64(seed)))
	start := time.Now()
	runs := 0
	for seg.passes == 0 || time.Since(start).Seconds() < seconds || runs < minRuns {
		for _, i := range rng.Perm(len(specs)) {
			spec := specs[i]
			var res *core.Results
			var d time.Duration
			var err error
			if tr == nil {
				t0 := time.Now()
				res, err = experiments.Run(spec)
				d = time.Since(t0)
			} else {
				res, d, err = runLayers(tr, &seg.cost, fmt.Sprintf("p%d/%s", seg.passes, spec), spec, nil)
			}
			r.attempted++
			runs++
			if err == nil {
				err = refs.check(refKey(spec), res)
			}
			if err != nil {
				r.fail("%v: %v", spec, err)
				continue
			}
			seg.latMS = append(seg.latMS, float64(d.Nanoseconds())/1e6)
			seg.runNs += d.Nanoseconds()
			seg.ops += res.Ops
			if seg.passes == 0 {
				seg.first[i] = res
			}
		}
		seg.passes++
	}
	seg.wall = time.Since(start).Seconds()
	return seg
}

// normCycles is the geometric mean over kernels of design cycles over 1P1L
// cycles, from one pass (0 if any needed run failed).
func normCycles(specs []experiments.RunSpec, results []*core.Results, d core.Design) float64 {
	base := make(map[string]float64)
	for i, s := range specs {
		if s.Design == core.D0Baseline && s.Cores <= 1 && results[i] != nil {
			base[s.Bench] = float64(results[i].Cycles)
		}
	}
	var ratios []float64
	for i, s := range specs {
		if s.Design != d || s.Cores > 1 {
			continue
		}
		if results[i] == nil || base[s.Bench] == 0 {
			return 0
		}
		ratios = append(ratios, float64(results[i].Cycles)/base[s.Bench])
	}
	return geomean(ratios)
}

func runKernelSweep(o options) (*report, error) {
	specs := sweepSpecs()
	warm := experiments.RunSpec{Bench: "htap2", N: simN, Design: core.D0Baseline, LLCBytes: llcBytes, Scale: simScale}
	setup := func() (references, error) { return simSetup(specs, warm) }
	var setupSecs []float64
	refs, err := timeSetup(&setupSecs, setup, nil)
	if err != nil {
		return nil, err
	}
	r := newReport()
	if !o.trace {
		seg := measureSweep(r, refs, specs, o.seed, o.seconds, minJobs, nil)
		if _, err := timeSetup(&setupSecs, setup, nil); err != nil {
			return nil, err
		}
		if err := r.jobMetrics(seg.latMS, float64(len(seg.latMS))/seg.wall); err != nil {
			return nil, err
		}
		r.m["setup_s"] = median(setupSecs)
		r.m["sim_ops_per_s"] = float64(seg.ops) / seg.wall
		var ops, cycles uint64
		for _, res := range seg.first {
			if res != nil {
				ops += res.Ops
				cycles += res.Cycles
			}
		}
		r.m["ops_per_kcycle"] = ratio(float64(ops), float64(cycles)) * 1000
		for _, d := range []core.Design{core.D1DiffSet, core.D2Sparse} {
			v := normCycles(specs, seg.first, d)
			r.m["norm_cycles_"+d.String()] = v
			r.notef("norm_cycles_%s = %.4f (paper %.2f, error %+.1f%%)", d, v, paperNorm[d], (v/paperNorm[d]-1)*100)
		}
		r.notef("%d spec runs in %d passes over %.2f s", len(seg.latMS), seg.passes, seg.wall)
		return r, nil
	}

	base := measureSweep(r, refs, specs, o.seed, o.seconds/2, 0, nil)
	tr := newTracer()
	seg := measureSweep(r, refs, specs, o.seed, o.seconds/2, 0, tr)
	seg.cost.metrics(r.m)
	var counts modelCounts
	for _, res := range seg.first {
		if res != nil {
			counts.add(res)
		}
	}
	counts.metrics(r.m)
	r.traceMetrics(tr, seg.passes, float64(seg.runNs)/float64(seg.ops), float64(base.runNs)/float64(base.ops))
	r.notef("untraced %d runs, traced %d runs (%d passes); counts cover one pass", len(base.latMS), len(seg.latMS), seg.passes)
	return r, r.writeTrace(o, tr)
}

// blockClock stamps the host time at every `every`-th op the simulation
// pulls from its traces: the kv run's latency samples. The simulation
// consumes its traces on one goroutine, so the counter needs no lock.
type blockClock struct {
	n, every int64
	stamps   []time.Time
}

type clockedReader struct {
	isa.TraceReader
	c *blockClock
}

func (r clockedReader) Next() (isa.Op, bool) {
	op, ok := r.TraceReader.Next()
	if ok {
		r.c.n++
		if r.c.n%r.c.every == 0 {
			r.c.stamps = append(r.c.stamps, time.Now())
		}
	}
	return op, ok
}

// Close forwards to the wrapped stream so the machine still stops its
// generator.
func (r clockedReader) Close() {
	if c, ok := r.TraceReader.(isa.Closer); ok {
		c.Close()
	}
}

func (c *blockClock) wrap(ts []isa.TraceReader) []isa.TraceReader {
	c.stamps = append(c.stamps[:0], time.Now())
	out := make([]isa.TraceReader, len(ts))
	for i, t := range ts {
		out[i] = clockedReader{t, c}
	}
	return out
}

// blockMS is the host time of each op block, in ms.
func (c *blockClock) blockMS() []float64 {
	out := make([]float64, 0, len(c.stamps))
	for i := 1; i < len(c.stamps); i++ {
		out = append(out, float64(c.stamps[i].Sub(c.stamps[i-1]).Nanoseconds())/1e6)
	}
	return out
}

// kvRun is one kv-4core simulation and its reference check.
type kvRun struct {
	res   *core.Results
	dur   time.Duration
	clock blockClock
}

func measureKV(r *report, refs references, spec experiments.RunSpec, tr *tracer, lc *layerCost) *kvRun {
	run := &kvRun{clock: blockClock{every: max(spec.Ops/kvBlocks, 1)}}
	res, d, err := runLayers(tr, lc, "kv", spec, run.clock.wrap)
	r.attempted++
	if err == nil {
		err = checkKV(refs, spec, res)
	}
	if err != nil {
		r.fail("%v: %v", spec, err)
		return nil
	}
	run.res, run.dur = res, d
	return run
}

// checkKV holds a kv result to reference.json, or, for a run length the
// reference does not cover, to a direct experiments.Run of the same spec.
func checkKV(refs references, spec experiments.RunSpec, res *core.Results) error {
	key := refKey(spec)
	if _, ok := refs[key]; ok {
		return refs.check(key, res)
	}
	want, err := experiments.Run(spec)
	if err != nil {
		return fmt.Errorf("direct experiments.Run: %w", err)
	}
	return references{key: refOf(want)}.check(key, res)
}

func runKV(o options) (*report, error) {
	spec := kvSpec(o.seed, o.seconds)
	if o.trace {
		spec = kvSpec(o.seed, o.seconds/2)
	}
	warm := spec
	warm.Ops = 20_000
	setup := func() (references, error) { return simSetup([]experiments.RunSpec{spec}, warm) }
	var setupSecs []float64
	refs, err := timeSetup(&setupSecs, setup, nil)
	if err != nil {
		return nil, err
	}
	r := newReport()
	if !o.trace {
		run := measureKV(r, refs, spec, nil, nil)
		if run == nil {
			return r.failedOnly(), nil
		}
		if _, err := timeSetup(&setupSecs, setup, nil); err != nil {
			return nil, err
		}
		secs := run.dur.Seconds()
		blocks := run.clock.blockMS()
		if err := r.jobMetrics(blocks, float64(len(blocks))/secs); err != nil {
			return nil, err
		}
		r.m["setup_s"] = median(setupSecs)
		r.m["sim_ops_per_s"] = float64(run.res.Ops) / secs
		r.m["ops_per_kcycle"] = float64(run.res.Ops) / float64(run.res.Cycles) * 1000
		r.m["norm_cycles_1P2L"], r.m["norm_cycles_2P2L"] = 1, 1
		r.notef("%s seed %d: %d ops, %d cycles in %.2f s; a job is a %d-op block", spec.Workload, spec.WorkloadSeed, run.res.Ops, run.res.Cycles, secs, run.clock.every)
		r.notef("norm_cycles_* are 1 (not applicable): kv-4core runs one design")
		return r, nil
	}

	base := measureKV(r, refs, spec, nil, nil)
	tr := newTracer()
	var lc layerCost
	run := measureKV(r, refs, spec, tr, &lc)
	if base == nil || run == nil {
		return r.failedOnly(), nil
	}
	lc.metrics(r.m)
	var counts modelCounts
	counts.add(run.res)
	counts.metrics(r.m)
	r.traceMetrics(tr, 1, float64(run.dur), float64(base.dur))
	return r, r.writeTrace(o, tr)
}
