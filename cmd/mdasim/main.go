// Command mdasim runs a single MDACache simulation: one benchmark on one
// cache-hierarchy design, printing execution time, per-level cache
// statistics and memory-controller statistics.
//
// Examples:
//
//	mdasim -bench sgemm -design 1P2L -n 128 -scale 4
//	mdasim -bench htap1 -design 2P2L -llc 2 -scale 2
//	mdasim -workload kv -ops 10000000 -zipf 0.99 -cores 4     # streamed requests
//	mdasim -printconfig -design 1P2L
//	mdasim -bench sgemm -write-fail-prob 0.01 -fault-seed 7   # NVM faults
//	mdasim -bench sgemm -timeout 30s -max-cycles 1e9          # watchdog
//	mdasim -bench sobel -trace-out t.json -trace-format chrome  # Perfetto trace
//	mdasim -bench sobel -metrics-out -                          # metrics JSON
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
	"mdacache/internal/experiments"
	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/stats"
	"mdacache/internal/workloads"
)

func main() {
	var (
		bench     = flag.String("bench", "sgemm", "benchmark: "+strings.Join(workloads.Names, ", "))
		design    = flag.String("design", "1P2L", "design: 1P1L, 1P2L, 1P2L_SameSet, 2P2L, 2P2L_Dense, 2P2L_L1")
		cores     = flag.Int("cores", 1, "trace-driven cores sharing the hierarchy (private L1s over a coherent shared L2/LLC); the trace is sharded round-robin")
		n         = flag.Int("n", 0, "matrix dimension (default: 512/scale)")
		llcMB     = flag.Float64("llc", 1, "LLC capacity in MB at paper scale")
		scale     = flag.Int("scale", 4, "scale divisor: caches /scale², default n = 512/scale")
		twoLevel  = flag.Bool("twolevel", false, "drop the L3; the L2 is the LLC (Fig. 13 config)")
		fastMem   = flag.Bool("fastmem", false, "1.6x faster main memory (Fig. 17)")
		slowWr    = flag.Uint64("slowwrite", 0, "extra 2P2L array-write cycles (Fig. 16 uses 20)")
		tiled1D   = flag.Bool("force-tiled-layout", false, "force the 2-D layout on a 1-D hierarchy (ablation)")
		occEvery  = flag.Uint64("occupancy", 0, "sample row/col occupancy every N cycles (Fig. 15)")
		printCfg  = flag.Bool("printconfig", false, "print the Table I configuration and exit")
		traceFile = flag.String("trace", "", "run a serialized trace (see mdatrace) instead of compiling -bench")

		workload  = flag.String("workload", "", "request-driven workload instead of -bench: "+strings.Join(workloads.RequestNames, ", ")+" (streamed, O(1) memory in -ops)")
		opCount   = flag.Int64("ops", 1_000_000, "total request-stream ops across all cores (with -workload)")
		zipf      = flag.Float64("zipf", 0.99, "Zipf key-popularity skew theta in [0,1); 0 = uniform (with -workload)")
		readRatio = flag.Float64("read-ratio", 0.9, "fraction of point requests that are reads, in [0,1] (with -workload)")
		clients   = flag.Int("clients", 0, "simulated clients pinned round-robin to cores (0 = one per core; with -workload)")
		wlSeed    = flag.Uint64("workload-seed", 1, "request-generation seed; fixed seed = bit-identical stream (with -workload)")
		predict   = flag.Bool("predict", false, "enable dynamic orientation prediction in the L1 (1P2L designs)")
		csvOut    = flag.Bool("csv", false, "emit a flat metric,value CSV instead of tables")
		failProb  = flag.Float64("write-fail-prob", 0, "NVM write-fault injection: per-attempt verify-failure probability (0 disables)")
		faultSeed = flag.Uint64("fault-seed", 0, "seed for the fault-injection PRNG")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget; expiry aborts with diagnostics (0 = unlimited)")
		maxCycles = flag.Uint64("max-cycles", 0, "simulated-cycle budget; excess aborts with diagnostics (0 = unlimited)")

		traceOut    = flag.String("trace-out", "", "write per-event simulation trace to this file")
		traceFormat = flag.String("trace-format", "jsonl", "trace format: jsonl, or chrome (open in Perfetto / chrome://tracing)")
		traceCats   = flag.String("trace-cats", "all", "categories to trace: comma-separated from cache,mshr,mem,fault,cpu (or all)")
		traceSample = flag.Int("trace-sample", 1, "keep 1 of every N events per category (deterministic sampling)")
		metricsOut  = flag.String("metrics-out", "", "write the end-of-run metrics-registry snapshot as JSON ('-' = stdout)")
	)
	flag.Parse()

	d, ok := core.ParseDesign(*design)
	if !ok {
		usagef("unknown design %q (valid: %s)", *design, strings.Join(core.DesignNames(), ", "))
	}
	if *traceFile == "" && *workload == "" && !workloads.Valid(*bench) {
		usagef("unknown benchmark %q (valid: %s)", *bench, strings.Join(workloads.Names, ", "))
	}
	if *workload != "" {
		if !workloads.ValidRequest(*workload) {
			usagef("unknown workload %q (valid: %s)", *workload, strings.Join(workloads.RequestNames, ", "))
		}
		if *traceFile != "" {
			usagef("-workload and -trace are mutually exclusive")
		}
		if *opCount < 1 {
			usagef("-ops must be >= 1 (got %d)", *opCount)
		}
		if *zipf < 0 || *zipf >= 1 {
			usagef("-zipf must be in [0, 1) (got %g)", *zipf)
		}
		if *readRatio < 0 || *readRatio > 1 {
			usagef("-read-ratio must be in [0, 1] (got %g)", *readRatio)
		}
		if *clients < 0 {
			usagef("-clients must be non-negative (got %d)", *clients)
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "bench" {
				usagef("-bench and -workload are mutually exclusive")
			}
		})
	} else {
		// Request knobs modify -workload; set without it they would be
		// silently ignored (same guard as the trace flags below).
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "ops", "zipf", "read-ratio", "clients", "workload-seed":
				usagef("-%s requires -workload", f.Name)
			}
		})
	}
	if *scale < 1 {
		usagef("-scale must be >= 1 (got %d)", *scale)
	}
	if *n < 0 {
		usagef("-n must be non-negative (got %d)", *n)
	}
	if *cores < 1 {
		usagef("-cores must be >= 1 (got %d)", *cores)
	}
	if *failProb < 0 || *failProb >= 1 {
		usagef("-write-fail-prob must be in [0, 1) (got %g)", *failProb)
	}
	if *traceSample < 1 {
		usagef("-trace-sample must be >= 1 (got %d)", *traceSample)
	}
	// Trace flags modify -trace-out; set without it they would be silently
	// ignored, which hides typos like -trace-format without an output.
	if *traceOut == "" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "trace-format", "trace-cats", "trace-sample":
				usagef("-%s requires -trace-out", f.Name)
			}
		})
	}
	if *n == 0 {
		*n = 512 / *scale
	}
	spec := experiments.RunSpec{
		Bench:             *bench,
		N:                 *n,
		Design:            d,
		Cores:             *cores,
		LLCBytes:          int(*llcMB * float64(core.MB)),
		TwoLevel:          *twoLevel,
		Scale:             *scale,
		FastMem:           *fastMem,
		SlowWrite:         *slowWr,
		OccupancyInterval: *occEvery,
		PredictOrient:     *predict,
		WriteFailProb:     *failProb,
		FaultSeed:         *faultSeed,
		Timeout:           *timeout,
		MaxCycles:         *maxCycles,
	}
	if *workload != "" {
		spec.Bench = *workload // report/table headers show the workload name
		spec.Workload = *workload
		spec.Ops = *opCount
		spec.Zipf = *zipf
		spec.ReadRatio = *readRatio
		spec.Clients = *clients
		spec.WorkloadSeed = *wlSeed
	}
	if *tiled1D {
		spec.LayoutOverride = compiler.LayoutTiled
	}

	if *printCfg {
		cfg, err := spec.Config()
		if err != nil {
			fatalf("%v", err)
		}
		printConfig(cfg)
		return
	}

	var ins experiments.Instrument
	if *traceOut != "" {
		format, err := obs.ParseFormat(*traceFormat)
		if err != nil {
			usagef("%v", err)
		}
		cats, err := obs.ParseCategories(*traceCats)
		if err != nil {
			usagef("%v", err)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		ins.Tracer = obs.NewTracer(f, obs.TraceConfig{
			Format:      format,
			Cats:        cats,
			SampleEvery: *traceSample,
		})
	}

	var res *core.Results
	var err error
	if *traceFile != "" {
		spec.Bench = "trace:" + *traceFile
		res, err = runTraceFile(spec, *traceFile, ins.Tracer)
	} else {
		res, err = experiments.RunWith(context.Background(), spec, ins)
	}
	if cerr := ins.Tracer.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("writing %s: %w", *traceOut, cerr)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if ins.Tracer != nil {
		fmt.Fprintf(os.Stderr, "mdasim: wrote %d events to %s (%s)\n",
			ins.Tracer.Emitted(), *traceOut, *traceFormat)
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, res); err != nil {
			fatalf("%v", err)
		}
	}
	if *csvOut {
		reportCSV(res)
		return
	}
	report(spec, res)
}

// writeMetrics dumps the run's metric snapshot as indented JSON.
func writeMetrics(path string, res *core.Results) error {
	data, err := json.MarshalIndent(res.Metrics, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// reportCSV emits every counter as one metric,value row — convenient for
// scripting sweeps over mdasim invocations.
func reportCSV(res *core.Results) {
	row := func(name string, v interface{}) { fmt.Printf("%s,%v\n", name, v) }
	row("cycles", res.Cycles)
	row("ops", res.Ops)
	row("vector_ops", res.Vectors)
	row("loads", res.Loads)
	row("stores", res.Stores)
	row("order_stalls", res.OrderStalls)
	for _, l := range res.Levels {
		p := strings.ToLower(l.Name) + "_"
		row(p+"accesses", l.Accesses)
		row(p+"hits", l.Hits)
		row(p+"misses", l.Misses)
		row(p+"hits_wrong_orient", l.HitsWrongOrient)
		row(p+"partial_hits", l.PartialHits)
		row(p+"fills", l.FillsIssued)
		row(p+"writebacks_out", l.Writebacks)
		row(p+"writebacks_in", l.WritebacksIn)
		row(p+"evictions", l.Evictions)
		row(p+"bytes_from_below", l.BytesFromBelow)
		row(p+"bytes_to_below", l.BytesToBelow)
		row(p+"duplicate_evictions", l.DuplicateEvictions)
		row(p+"duplicate_flushes", l.DuplicateFlushes)
		row(p+"mshr_coalesced", l.MSHRCoalesced)
		row(p+"mshr_stalls", l.MSHRStalls)
		row(p+"extra_tag_probes", l.ExtraTagProbes)
		row(p+"prefetch_issued", l.PrefetchIssued)
		row(p+"prefetch_useful", l.PrefetchUseful)
	}
	row("mem_row_reads", res.Mem.Reads[isa.Row])
	row("mem_col_reads", res.Mem.Reads[isa.Col])
	row("mem_row_writes", res.Mem.Writes[isa.Row])
	row("mem_col_writes", res.Mem.Writes[isa.Col])
	row("mem_row_buffer_hits", res.Mem.BufferHits[isa.Row])
	row("mem_col_buffer_hits", res.Mem.BufferHits[isa.Col])
	row("mem_row_activations", res.Mem.Activations[isa.Row])
	row("mem_col_activations", res.Mem.Activations[isa.Col])
	row("mem_bytes_read", res.Mem.BytesRead)
	row("mem_bytes_written", res.Mem.BytesWritten)
	row("mem_write_retries", res.Mem.WriteRetries)
	row("mem_write_faults", res.Mem.WriteFaults)
	row("mem_energy_pj", fmt.Sprintf("%.0f", res.Mem.Energy.TotalPJ()))
}

// runTraceFile replays a serialized trace through the spec's machine.
func runTraceFile(spec experiments.RunSpec, path string, tracer *obs.Tracer) (*core.Results, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	cfg.Tracer = tracer
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := isa.NewFileTrace(f)
	if err != nil {
		return nil, err
	}
	m, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	res, err := m.RunTracesCtx(ctx, experiments.ShardTrace(tr, len(m.CPUs))...)
	if err != nil {
		return nil, err
	}
	if err := tr.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mdasim: "+format+"\n", args...)
	os.Exit(1)
}

// usagef reports a bad invocation (unknown benchmark/design) on exit code 2,
// the conventional usage-error status.
func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mdasim: "+format+"\n", args...)
	os.Exit(2)
}

func printConfig(cfg core.Config) {
	t := stats.NewTable("Configuration (Table I)", "component", "value")
	lvl := func(p core.CacheParams) string {
		seq := "parallel"
		if p.Sequential {
			seq = "sequential"
		}
		return fmt.Sprintf("%dKB %d-way, tag %d / data %d cycles (%s), %d MSHRs, %v mapping",
			p.SizeBytes/1024, p.Assoc, p.TagLat, p.DataLat, seq, p.MSHRs, p.Mapping)
	}
	t.AddRow("design", cfg.Design)
	t.AddRow("L1", lvl(cfg.L1))
	t.AddRow("L2", lvl(cfg.L2))
	if cfg.L3.SizeBytes > 0 {
		t.AddRow("L3 (LLC)", lvl(cfg.L3))
	}
	t.AddRow("memory", fmt.Sprintf("%d channels x %d ranks x %d banks, RCD=%d CAS=%d PRE=%d WR=%d, row-only=%v",
		cfg.Mem.Channels, cfg.Mem.Ranks, cfg.Mem.Banks,
		cfg.Mem.RCD, cfg.Mem.CAS, cfg.Mem.Precharge, cfg.Mem.WriteRec, cfg.Mem.RowOnly))
	t.AddRow("CPU window", cfg.Window)
	fmt.Print(t)
}

func report(spec experiments.RunSpec, res *core.Results) {
	fmt.Printf("%s on %v: %d cycles (%d ops, %d vector)\n\n",
		spec.Bench, spec.Design, res.Cycles, res.Ops, res.Vectors)

	t := stats.NewTable("Cache levels",
		"level", "accesses", "hit rate", "wrong-orient", "partial", "fills", "wb out", "wb in", "dup evict", "MSHR coalesce")
	for _, l := range res.Levels {
		t.AddRow(l.Name, l.Accesses, l.HitRate(), l.HitsWrongOrient, l.PartialHits,
			l.FillsIssued, l.Writebacks, l.WritebacksIn, l.DuplicateEvictions, l.MSHRCoalesced)
	}
	fmt.Print(t)

	m := stats.NewTable("MDA main memory", "metric", "row", "col")
	m.AddRow("line reads", res.Mem.Reads[isa.Row], res.Mem.Reads[isa.Col])
	m.AddRow("line writes", res.Mem.Writes[isa.Row], res.Mem.Writes[isa.Col])
	m.AddRow("buffer hits", res.Mem.BufferHits[isa.Row], res.Mem.BufferHits[isa.Col])
	m.AddRow("activations", res.Mem.Activations[isa.Row], res.Mem.Activations[isa.Col])
	fmt.Println()
	fmt.Print(m)
	fmt.Printf("\nmemory traffic: %.2f MB read, %.2f MB written, avg read latency %.1f cycles\n",
		float64(res.Mem.BytesRead)/1e6, float64(res.Mem.BytesWritten)/1e6, res.Mem.AvgReadLatency())
	if res.Mem.WriteRetries > 0 {
		fmt.Printf("injected write faults: %d retries across %d line writes\n",
			res.Mem.WriteRetries, res.Mem.Writes[isa.Row]+res.Mem.Writes[isa.Col])
	}
	e := &res.Mem.Energy
	fmt.Printf("memory energy: %.1f uJ (activations %.1f, buffers %.1f, bus %.1f, writes %.1f)\n",
		e.TotalUJ(), e.ActivationPJ/1e6, e.BufferPJ/1e6, e.BusPJ/1e6, e.WritePJ/1e6)

	if len(res.Occupancy) > 0 {
		fmt.Println()
		for li, name := range []string{"L1", "L2", "L3"} {
			if li >= len(res.Occupancy[0].Row) {
				break
			}
			ser := stats.Series{Name: name}
			for _, s := range res.Occupancy {
				ser.X = append(ser.X, s.Cycle)
				ser.Y = append(ser.Y, s.ColFraction(li))
			}
			fmt.Printf("%s column occupancy (max %.1f%%): %s\n", name, 100*ser.MaxY(), ser.Sparkline(60))
		}
	}
}
