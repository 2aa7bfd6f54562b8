// Command mdacheck runs the cross-design conformance harness: seeded random
// traces replayed on every cache design and checked against a functional
// reference model (identical load values, identical final memory image,
// metric conservation identities). With -cores above 1, traces become
// per-core streams contending on a shared hierarchy (private L1s over a
// coherent shared L2/LLC) and the same invariants are checked against one
// shared reference model.
//
// Examples:
//
//	mdacheck -n 1000                 # check seeds 0..999
//	mdacheck -seed 0x2a              # reproduce one seed (prints its spec)
//	mdacheck -n 200 -designs all     # include the ablation designs
//	mdacheck -n 100 -faults on       # force fault injection everywhere
//	mdacheck -n 512 -cores 1,2,4     # conformance sweep over core counts
//	mdacheck -cores 2 -seed 7        # reproduce one multi-core seed
//	mdacheck -seed 7 -break-coherence  # demo: watch the harness catch a bug
//	mdacheck -workload kv -n 64 -cores 1,2,4   # request-workload streams
//	mdacheck -workload htap -cores 2 -seed 3   # reproduce one request seed
//
// On failure, mdacheck prints the shrunk trace (or multi-core schedule) and
// a one-line repro command and exits 1. Exit code 2 means the invocation
// itself was invalid.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"mdacache/internal/check"
	"mdacache/internal/core"
	"mdacache/internal/workloads"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 0, "check exactly this seed (overrides -n)")
		n        = flag.Int("n", 256, "number of corpus seeds to check (seeds 0..n-1)")
		designs  = flag.String("designs", "paper", "design set: paper (1P1L,1P2L,1P2L_SameSet,2P2L) or all (+2P2L_Dense,2P2L_L1)")
		cores    = flag.String("cores", "1", "comma-separated core counts to check (1 = the single-core trace corpus, >1 = contended per-core streams on a shared hierarchy)")
		faults   = flag.String("faults", "auto", "fault injection: auto (per-seed), on, off")
		breakCoh = flag.Bool("break-coherence", false, "disable duplicate-coherence eviction (verifies the harness catches it)")
		breakSnp = flag.Bool("break-snoop", false, "disable cross-core snoop invalidation (verifies the multi-core harness catches it; every -cores count must be above 1)")
		workload = flag.String("workload", "", "check request-workload streams (kv, htap) instead of the harness's own patterns")
		noShrink = flag.Bool("no-shrink", false, "skip trace minimisation on failure")
		maxFail  = flag.Int("max-failures", 1, "stop after this many failing seeds")
		verbose  = flag.Bool("v", false, "print each seed's spec as it runs")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		usagef("unexpected arguments: %v", flag.Args())
	}

	opt := check.Options{NoShrink: *noShrink}
	switch *designs {
	case "paper":
		// nil selects check.PaperDesigns.
	case "all":
		opt.Designs = check.AllDesigns
	default:
		usagef("invalid -designs %q (valid: paper, all)", *designs)
	}
	switch *faults {
	case "auto":
		opt.Faults = check.FaultAuto
	case "on":
		opt.Faults = check.FaultOn
	case "off":
		opt.Faults = check.FaultOff
	default:
		usagef("invalid -faults %q (valid: auto, on, off)", *faults)
	}
	opt.BreakCoherence = *breakCoh
	opt.BreakSnoop = *breakSnp
	if *n <= 0 && !seedSet() {
		usagef("-n must be positive")
	}
	if *maxFail <= 0 {
		usagef("-max-failures must be positive")
	}
	if *workload != "" && !workloads.ValidRequest(*workload) {
		usagef("unknown workload %q (valid: %s)", *workload, strings.Join(workloads.RequestNames, ", "))
	}
	coreCounts := parseCores(*cores)
	if *breakSnp && slices.Contains(coreCounts, 1) {
		usagef("-break-snoop needs every -cores count above 1 (got %q): one core has no sibling to snoop, so the mutation would change nothing", *cores)
	}

	seeds := make([]uint64, 0, *n)
	if seedSet() {
		seeds = append(seeds, *seed)
	} else {
		for s := 0; s < *n; s++ {
			seeds = append(seeds, uint64(s))
		}
	}

	failures := 0
	checked := 0
sweep:
	for _, nc := range coreCounts {
		for _, s := range seeds {
			checked++
			var f *check.Failure
			switch {
			case *workload != "":
				spec := check.RequestSpecForSeed(*workload, s, nc)
				if *verbose {
					fmt.Printf("mdacheck: %v\n", spec)
				}
				var err error
				if f, err = check.CheckRequest(spec, opt); err != nil {
					usagef("%v", err)
				}
			case nc == 1:
				spec := check.SpecForSeed(s)
				if *verbose {
					fmt.Printf("mdacheck: cores=1 %v\n", spec)
				}
				f = check.CheckSpec(spec, opt)
			default:
				spec := check.MCSpecForSeed(s, nc)
				if *verbose {
					fmt.Printf("mdacheck: %v\n", spec)
				}
				f = check.CheckMCSpec(spec, opt)
			}
			if f != nil {
				fmt.Print(f)
				failures++
				if failures >= *maxFail {
					break sweep
				}
			}
		}
	}
	if failures > 0 {
		fmt.Printf("mdacheck: %d failing seed(s) of %d checked\n", failures, checked)
		os.Exit(1)
	}
	dn := "paper designs"
	if *designs == "all" {
		dn = "all designs"
	}
	src := ""
	if *workload != "" {
		src = *workload + " workload "
	}
	fmt.Printf("mdacheck: %d %sseed(s) conform across %s (designs: %s, cores: %s, faults: %s)\n",
		checked, src, dn, designSetString(opt.Designs), *cores, *faults)
}

// parseCores parses the -cores list ("1,2,4") into validated core counts.
func parseCores(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			usagef("invalid -cores entry %q (want positive integers, e.g. 1,2,4)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		usagef("-cores must name at least one core count")
	}
	return out
}

// seedSet reports whether -seed was passed explicitly (0 is a valid seed).
func seedSet() bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			set = true
		}
	})
	return set
}

func designSetString(ds []core.Design) string {
	if ds == nil {
		ds = check.PaperDesigns
	}
	out := ""
	for i, d := range ds {
		if i > 0 {
			out += ","
		}
		out += d.String()
	}
	return out
}

// usagef reports a bad invocation on exit code 2, the conventional
// usage-error status.
func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mdacheck: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
