// Command mdabench regenerates the paper's evaluation: every table and
// figure of §VII–§VIII plus the ablations, printed as text tables (and
// optionally CSV).
//
// Examples:
//
//	mdabench -fig 12 -scale 4          # normalized cycles, all LLC sizes
//	mdabench -fig all -scale 4 -v      # the whole evaluation with progress
//	mdabench -fig 15 -scale 4          # occupancy sparklines
//	mdabench -fig all -resume s.json   # checkpoint; re-run resumes
//	mdabench -fig all -workers 8       # 8 figures simulate concurrently
//
// -scale 1 is the paper's exact configuration (hours of simulation);
// -scale 4 (default) divides matrix dims by 4 and cache capacities by 16,
// preserving all working-set/capacity ratios.
//
// Parallelism: in -fig all mode, -workers (default GOMAXPROCS) figures
// simulate concurrently. Every simulation is deterministic per design point
// and the suite deduplicates simulations shared between figures, so the
// printed output is byte-identical for any worker count; a wall-clock
// summary with the achieved speedup is printed to stderr at the end.
//
// Fault tolerance: -timeout and -max-cycles bound each simulation (a stuck
// design point aborts with diagnostics instead of hanging the sweep), -resume
// persists finished runs to a JSON state file so an interrupted sweep picks
// up where it stopped (checkpoints written by parallel runs resume cleanly),
// and in -fig all mode a failing figure is reported and skipped rather than
// aborting the remaining figures.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"mdacache/internal/experiments"
	"mdacache/internal/obs"
	"mdacache/internal/perf"
	"mdacache/internal/stats"
)

// figNames is every figure/ablation in "all"-mode order.
var figNames = []string{"10", "11", "12", "13", "14", "15", "16", "17", "layout", "dense", "design3", "tiling", "looporder", "tech", "mapping", "repl", "subrow", "report"}

func main() {
	var (
		fig         = flag.String("fig", "all", "figure: "+strings.Join(figNames, ", ")+", or all")
		scale       = flag.Int("scale", 4, "scale divisor (1 = paper scale)")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		verb        = flag.Bool("v", false, "log each simulation as it runs")
		timeout     = flag.Duration("timeout", 0, "wall-clock budget per simulation (0 = unlimited)")
		maxCycles   = flag.Uint64("max-cycles", 0, "simulated-cycle budget per simulation (0 = unlimited)")
		resume      = flag.String("resume", "", "JSON state file: checkpoint finished runs and resume from them")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "figures simulated concurrently in -fig all mode (1 = sequential); results and output order are identical for any value")
		profile     = flag.Bool("profile", false, "print a per-run phase profile (compile/build/simulate wall time, cycles, events) to stderr at the end")
		benchOut    = flag.String("bench-out", "", "run the simulator benchmark suite and write a BENCH_<n>.json baseline to this path (skips figure rendering)")
		benchSte    = flag.String("bench-suite", "full", "benchmark suite for -bench-out: quick (PR smoke) or full (baseline)")
		benchBase   = flag.String("bench-baseline", "", "after -bench-out, compare against this earlier BENCH_<n>.json and print per-scenario speedups")
		benchStrict = flag.Bool("bench-strict", false, "with -bench-baseline: exit non-zero if any scenario exists in only one baseline (a rename or dropped benchmark would otherwise hide a regression)")
	)
	flag.Parse()
	if *scale < 1 {
		usagef("-scale must be >= 1 (got %d)", *scale)
	}
	if flag.NArg() > 0 {
		usagef("unexpected arguments: %v", flag.Args())
	}
	if *benchBase != "" && *benchOut == "" {
		usagef("-bench-baseline requires -bench-out")
	}
	if *benchStrict && *benchBase == "" {
		usagef("-bench-strict requires -bench-baseline")
	}
	if *benchOut != "" {
		runBench(*benchOut, *benchSte, *benchBase, *benchStrict)
		return
	}

	var log io.Writer
	if *verb {
		log = os.Stderr
	}
	suite := experiments.NewSuite(*scale, log)
	suite.Timeout = *timeout
	suite.MaxCycles = *maxCycles
	if *profile {
		suite.Profiles = &obs.ProfileLog{}
		defer func() {
			if ps := suite.Profiles.Profiles(); len(ps) > 0 {
				fmt.Fprint(os.Stderr, experiments.ProfileTable(ps))
			}
		}()
	}
	if *resume != "" {
		ckpt, err := experiments.LoadCheckpoint(*resume)
		if err != nil {
			// A missing file is a valid first run (LoadCheckpoint returns an
			// empty checkpoint); an unreadable or corrupt one is a bad
			// invocation — resuming from it would silently redo (and then
			// overwrite) finished work, so refuse with a usage error.
			usagef("%v", err)
		}
		if n := ckpt.Len(); n > 0 && *verb {
			fmt.Fprintf(os.Stderr, "resuming from %s (%d finished runs)\n", *resume, n)
		}
		suite.Checkpoint = ckpt
	}

	emit := func(w io.Writer, t *stats.Table) {
		if *csv {
			fmt.Fprint(w, t.CSV())
		} else {
			fmt.Fprintln(w, t)
		}
	}

	// render produces one figure's complete output on w. Figures render
	// into private buffers when run concurrently (-workers), so their
	// tables never interleave and the printed order stays fixed.
	render := func(name string, w io.Writer) error {
		switch name {
		case "10":
			t, err := suite.Fig10()
			if err != nil {
				return err
			}
			emit(w, t)
		case "11":
			t, err := suite.Fig11()
			if err != nil {
				return err
			}
			emit(w, t)
		case "12":
			ts, err := suite.Fig12()
			if err != nil {
				return err
			}
			for _, t := range ts {
				emit(w, t)
			}
		case "13":
			t, err := suite.Fig13()
			if err != nil {
				return err
			}
			emit(w, t)
		case "14":
			t, err := suite.Fig14()
			if err != nil {
				return err
			}
			emit(w, t)
		case "15":
			rs, err := suite.Fig15()
			if err != nil {
				return err
			}
			for _, r := range rs {
				fmt.Fprintf(w, "== Fig. 15: %s column-line occupancy over time ==\n", r.Bench)
				for i, ser := range r.Series {
					fmt.Fprintf(w, "%-3s (peak %5.1f%%)  %s\n", r.Levels[i], 100*ser.MaxY(), ser.Sparkline(64))
				}
				fmt.Fprintln(w)
			}
		case "16":
			t, err := suite.Fig16()
			if err != nil {
				return err
			}
			emit(w, t)
		case "17":
			t, err := suite.Fig17()
			if err != nil {
				return err
			}
			emit(w, t)
		case "layout":
			t, err := suite.AblationLayout()
			if err != nil {
				return err
			}
			emit(w, t)
		case "dense":
			t, err := suite.AblationDense()
			if err != nil {
				return err
			}
			emit(w, t)
		case "design3":
			t, err := suite.AblationDesign3()
			if err != nil {
				return err
			}
			emit(w, t)
		case "tiling":
			t, err := suite.AblationTiling()
			if err != nil {
				return err
			}
			emit(w, t)
		case "looporder":
			t, err := suite.AblationLoopOrder()
			if err != nil {
				return err
			}
			emit(w, t)
		case "tech":
			t, err := suite.AblationTech()
			if err != nil {
				return err
			}
			emit(w, t)
		case "mapping":
			t, err := suite.AblationMapping()
			if err != nil {
				return err
			}
			emit(w, t)
		case "subrow":
			t, err := suite.AblationSubBuffers()
			if err != nil {
				return err
			}
			emit(w, t)
		case "repl":
			t, err := suite.AblationRepl()
			if err != nil {
				return err
			}
			emit(w, t)
		case "report":
			claims, err := suite.Report()
			if err != nil {
				return err
			}
			fmt.Fprint(w, experiments.ClaimsMarkdown(claims))
		default:
			fmt.Fprintf(os.Stderr, "mdabench: unknown figure %q (valid: %s, all)\n", name, strings.Join(figNames, ", "))
			os.Exit(2)
		}
		return nil
	}

	if *fig == "all" {
		// One broken figure must not cost the rest of the evaluation: run
		// every figure, collect failures, and summarise them at the end.
		// Figures fan out across -workers goroutines (the suite deduplicates
		// shared simulations and every simulation is deterministic, so the
		// output is identical for any worker count); each figure's output is
		// buffered and printed strictly in figNames order as it completes.
		start := time.Now()
		pool := *workers
		if pool < 1 {
			pool = 1
		}
		if pool > len(figNames) {
			pool = len(figNames)
		}
		type figResult struct {
			out     bytes.Buffer
			err     error
			elapsed time.Duration
		}
		results := make([]figResult, len(figNames))
		done := make([]chan struct{}, len(figNames))
		for i := range done {
			done[i] = make(chan struct{})
		}
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < pool; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					r := &results[i]
					t0 := time.Now()
					r.err = render(figNames[i], &r.out)
					r.elapsed = time.Since(t0)
					close(done[i])
				}
			}()
		}
		go func() {
			for i := range figNames {
				work <- i
			}
			close(work)
			wg.Wait()
		}()

		var failed []string
		var serial time.Duration
		for i, f := range figNames {
			<-done[i]
			r := &results[i]
			serial += r.elapsed
			if r.err != nil {
				fmt.Fprintf(os.Stderr, "mdabench: figure %s failed: %v\n", f, r.err)
				failed = append(failed, f)
				continue
			}
			os.Stdout.Write(r.out.Bytes())
		}
		wall := time.Since(start)
		speedup := float64(serial) / float64(wall)
		fmt.Fprintf(os.Stderr,
			"mdabench: %d figures in %s wall clock (%s of figure time, %.1fx speedup, %d workers)\n",
			len(figNames)-len(failed), wall.Round(time.Millisecond),
			serial.Round(time.Millisecond), speedup, pool)
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "mdabench: %d/%d figures failed: %s\n",
				len(failed), len(figNames), strings.Join(failed, ", "))
			os.Exit(1)
		}
		return
	}
	for _, f := range strings.Split(*fig, ",") {
		if err := render(strings.TrimSpace(f), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mdabench:", err)
			os.Exit(1)
		}
	}
}

// runBench records a performance baseline of the simulator itself (see
// internal/perf and the "Benchmarking" section of EXPERIMENTS.md). The root
// bench_test.go runs the same scenarios as its Table I, Fig. 10–13 and
// SimulatorThroughput benchmarks; the JSON artifact is
// the committed BENCH_<n>.json trajectory.
func runBench(out, suite, baseline string, strict bool) {
	// Benchmarking is minutes of silence without progress lines; always
	// narrate to stderr (stdout stays reserved for the compare table).
	progress := io.Writer(os.Stderr)
	fmt.Fprintf(progress, "mdabench: running %s benchmark suite (this takes a while)\n", suite)
	b, err := perf.Run(suite, progress)
	if err != nil {
		if strings.Contains(err.Error(), "unknown suite") {
			usagef("%v", err)
		}
		fmt.Fprintln(os.Stderr, "mdabench:", err)
		os.Exit(1)
	}
	if err := b.WriteFile(out); err != nil {
		fmt.Fprintln(os.Stderr, "mdabench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(progress, "mdabench: wrote %s (%d scenarios)\n", out, len(b.Results))
	if baseline != "" {
		old, err := perf.LoadBaseline(baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mdabench:", err)
			os.Exit(1)
		}
		deltas, geo, skipped := perf.Compare(old, b)
		if len(deltas) == 0 {
			fmt.Fprintln(os.Stderr, "mdabench: no overlapping scenarios between baselines")
			os.Exit(1)
		}
		fmt.Print(perf.FormatCompare(deltas, geo, skipped))
		if len(skipped) > 0 {
			fmt.Fprintf(os.Stderr, "mdabench: WARNING: %d scenario(s) not compared: %s\n",
				len(skipped), strings.Join(skipped, "; "))
			if strict {
				fmt.Fprintln(os.Stderr, "mdabench: -bench-strict: unmatched scenarios are an error")
				os.Exit(1)
			}
		}
	}
}

// usagef reports a bad invocation on exit code 2, the conventional
// usage-error status.
func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mdabench: "+format+"\n", args...)
	os.Exit(2)
}
