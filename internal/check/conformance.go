package check

import (
	"fmt"
	"strings"

	"mdacache/internal/core"
	"mdacache/internal/isa"
)

// FaultMode controls transient write-fault injection during checking.
type FaultMode int

const (
	// FaultAuto follows the seed-derived spec (half the corpus injects).
	FaultAuto FaultMode = iota
	// FaultOff disables injection regardless of the spec.
	FaultOff
	// FaultOn forces injection regardless of the spec.
	FaultOn
)

// Options configures a conformance check.
type Options struct {
	// Designs overrides the design set. Nil selects the paper's four
	// (1P1L, 1P2L, 1P2L_SameSet, 2P2L); 1P1L is automatically dropped for
	// traces containing column-orientation ops, which it architecturally
	// cannot execute (row-only memory). Cross-design equivalence is
	// transitive: every design is compared against the same reference
	// model, so designs never need to run in pairs.
	Designs []core.Design

	// Faults selects fault injection (default FaultAuto: per-spec).
	Faults FaultMode

	// BreakCoherence enables the testing-only duplicate-coherence mutation
	// (core.CacheParams.BreakDupCoherence) on every level. Used by the
	// harness's own tests to prove a coherence bug is detected.
	BreakCoherence bool

	// BreakSnoop enables the testing-only cross-core snoop mutation
	// (core.Config.BreakSnoopCoherence): the shared-level hub stops
	// flushing/invalidating sibling L1 copies on cross-core traffic. Only
	// meaningful for multi-core checks; used by the harness's own tests to
	// prove a coherence break shrinks to a minimal cross-core witness.
	BreakSnoop bool

	// NoShrink skips trace minimisation on failure (soak throughput knob).
	NoShrink bool
}

// PaperDesigns is the default design set: the four configurations the paper
// evaluates head-to-head.
var PaperDesigns = []core.Design{core.D0Baseline, core.D1DiffSet, core.D1SameSet, core.D2Sparse}

// AllDesigns additionally covers the ablation designs (dense-fill 2P2L LLC
// and all-tile hierarchy).
var AllDesigns = []core.Design{
	core.D0Baseline, core.D1DiffSet, core.D1SameSet,
	core.D2Sparse, core.D2Dense, core.D3AllTile,
}

// checkMaxCycles bounds any single design run; generated traces are ≤256
// ops, so a run that needs more simulated cycles than this is itself a bug.
const checkMaxCycles = 10_000_000

// maxViolationsPerDesign caps how many violations one design run records —
// a broken design fails every load, and one line per load is noise.
const maxViolationsPerDesign = 8

// Violation is one invariant breach found while checking a trace.
type Violation struct {
	Design core.Design
	Kind   string // "load-value", "final-image", "ghost-write", "metrics", "run-error"
	Msg    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Design, v.Kind, v.Msg)
}

// Failure describes a failing seed: the (possibly shrunk) trace and the
// violations it produces. Repro prints the one-line reproduction command.
type Failure struct {
	Spec       GenSpec
	Ops        []isa.Op // shrunk trace (or full trace with Options.NoShrink)
	Shrunk     bool
	Violations []Violation
}

// Repro returns the copy-pasteable command that reproduces this failure.
func (f *Failure) Repro() string {
	return fmt.Sprintf("mdacheck -seed %#x", f.Spec.Seed)
}

// String renders the failure report: spec, repro line, violations, trace.
func (f *Failure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance failure: %s\n", f.Spec)
	fmt.Fprintf(&b, "reproduce with: %s\n", f.Repro())
	for _, v := range f.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	label := "shrunk trace"
	if !f.Shrunk {
		label = "trace"
	}
	fmt.Fprintf(&b, "%s (%d ops):\n", label, len(f.Ops))
	for i, op := range f.Ops {
		fmt.Fprintf(&b, "  %3d: %v", i, op)
		if op.Kind == isa.Store {
			fmt.Fprintf(&b, " value=%d", op.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// designsFor returns opt.Designs filtered for applicability to ops: the
// row-only baseline is dropped when the trace contains column ops.
func designsFor(ops []isa.Op, opt Options) []core.Design {
	ds := opt.Designs
	if ds == nil {
		ds = PaperDesigns
	}
	hasCol := false
	for _, op := range ops {
		if op.Orient == isa.Col {
			hasCol = true
			break
		}
	}
	if !hasCol {
		return ds
	}
	out := make([]core.Design, 0, len(ds))
	for _, d := range ds {
		if d != core.D0Baseline {
			out = append(out, d)
		}
	}
	return out
}

// faultsEnabled resolves the effective fault setting for a spec.
func faultsEnabled(spec GenSpec, opt Options) bool {
	switch opt.Faults {
	case FaultOff:
		return false
	case FaultOn:
		return true
	}
	return spec.Faults
}

// CheckOps replays ops on every applicable design and returns all invariant
// violations (empty ⇒ the trace conforms). spec supplies the machine
// parameters (config variant, fault seed); spec.Pattern/Ops/Tiles are not
// consulted, so callers may pass hand-written traces with a zero-value spec.
func CheckOps(ops []isa.Op, spec GenSpec, opt Options) []Violation {
	annotated := Annotate(ops)
	_, final := Replay(ops)
	var out []Violation
	for _, d := range designsFor(ops, opt) {
		out = append(out, checkDesign(d, annotated, final, spec, opt)...)
	}
	return out
}

// checkDesign runs one design over the annotated trace and checks every
// invariant: load values, final memory image (both directions), and metric
// conservation identities.
func checkDesign(d core.Design, annotated []isa.Op, final map[uint64]uint64, spec GenSpec, opt Options) []Violation {
	var vio []Violation
	add := func(kind, format string, args ...interface{}) {
		if len(vio) < maxViolationsPerDesign {
			vio = append(vio, Violation{Design: d, Kind: kind, Msg: fmt.Sprintf(format, args...)})
		}
	}

	cfg := core.SmallConfig(d, spec.CfgVariant)
	cfg.MaxCycles = checkMaxCycles
	if faultsEnabled(spec, opt) {
		cfg.Mem.WriteFailProb = 0.05
		cfg.Mem.FaultSeed = spec.Seed ^ 0xfa017
	}
	if opt.BreakCoherence {
		cfg.L1.BreakDupCoherence = true
		cfg.L2.BreakDupCoherence = true
		cfg.L3.BreakDupCoherence = true
	}
	m, err := core.Build(cfg)
	if err != nil {
		add("run-error", "build: %v", err)
		return vio
	}

	// Invariant 1 — load values: every completed load returns exactly the
	// program-order reference value carried in op.Value. Because the CPU's
	// overlap-ordering rule guarantees loads observe the program-order-latest
	// store, this single check also subsumes MSHR per-address ordering: any
	// reordering that lets a load bypass an older same-word store surfaces as
	// a value mismatch here.
	m.CPU.OnLoad = func(op isa.Op, value uint64) {
		if value != op.Value {
			add("load-value", "%v returned %d, want %d", op, value, op.Value)
		}
	}
	res, err := m.Run(isa.NewSliceTrace(annotated))
	if err != nil {
		add("run-error", "%v", err)
		return vio
	}

	// Invariant 2 — final memory image, checked in both directions after a
	// full drain: every reference word must be in memory (stale write-backs,
	// lost dirty bits), and every non-zero memory word must be in the
	// reference (ghost writes).
	m.DrainAll()
	store := m.Memory.Store()
	for addr, want := range final {
		if got := store.ReadWord(addr); got != want {
			add("final-image", "memory[%#x] = %d after drain, want %d", addr, got, want)
		}
	}
	store.ForEachWord(func(addr, v uint64) {
		if _, ok := final[addr]; !ok {
			add("ghost-write", "memory[%#x] = %d, reference never wrote it", addr, v)
		}
	})

	// Invariant 3 — metric conservation identities over the obs snapshot.
	snap := res.Metrics
	counter := func(name string) uint64 {
		v, _ := snap.Counter(name)
		return v
	}
	if got := counter("cpu.ops"); got != uint64(len(annotated)) {
		add("metrics", "cpu.ops = %d, want %d", got, len(annotated))
	}
	for _, lvl := range []string{"l1", "l2", "l3"} {
		acc := counter(lvl + ".accesses")
		if h, mi := counter(lvl+".hits"), counter(lvl+".misses"); h+mi != acc {
			add("metrics", "%s: hits %d + misses %d != accesses %d", lvl, h, mi, acc)
		}
		if s, v := counter(lvl+".scalar_accesses"), counter(lvl+".vector_accesses"); s+v != acc {
			add("metrics", "%s: scalar %d + vector %d != accesses %d", lvl, s, v, acc)
		}
		if r, c := counter(lvl+".accesses.row"), counter(lvl+".accesses.col"); r+c != acc {
			add("metrics", "%s: row %d + col %d != accesses %d", lvl, r, c, acc)
		}
		// Demand fills are bounded by misses; prefetches and the dense-fill
		// LLC's background tile fills issue additional fills by design.
		if d != core.D2Dense {
			fills := counter(lvl + ".fills_issued")
			budget := counter(lvl+".misses") + counter(lvl+".prefetch_issued") + counter(lvl+".writebacks_in")
			if fills > budget {
				add("metrics", "%s: fills_issued %d > misses+prefetch+writebacks_in %d", lvl, fills, budget)
			}
		}
		// Non-duplicating designs must never touch the duplicate machinery.
		if d == core.D0Baseline {
			if de, df := counter(lvl+".duplicate_evictions"), counter(lvl+".duplicate_flushes"); de+df != 0 {
				add("metrics", "%s: baseline recorded duplicate traffic (evictions=%d flushes=%d)", lvl, de, df)
			}
		}
	}
	if d == core.D0Baseline {
		if c := counter("mem.reads.col"); c != 0 {
			add("metrics", "baseline issued %d column memory reads", c)
		}
		if c := counter("mem.writes.col"); c != 0 {
			add("metrics", "baseline issued %d column memory writes", c)
		}
	}
	if !faultsEnabled(spec, opt) {
		if f := counter("mem.write_retries"); f != 0 {
			add("metrics", "write retries %d with fault injection off", f)
		}
	}
	return vio
}

// CheckSpec generates the trace for spec, checks it, and — on failure —
// shrinks it to a locally-minimal failing trace. Returns nil when every
// invariant holds.
func CheckSpec(spec GenSpec, opt Options) *Failure {
	ops := Generate(spec)
	vio := CheckOps(ops, spec, opt)
	if len(vio) == 0 {
		return nil
	}
	f := &Failure{Spec: spec, Ops: ops, Violations: vio}
	if !opt.NoShrink {
		shrunk := ShrinkOps(ops, func(cand []isa.Op) bool {
			return len(CheckOps(cand, spec, opt)) > 0
		})
		f.Ops = shrunk
		f.Shrunk = true
		f.Violations = CheckOps(shrunk, spec, opt)
	}
	return f
}

// CheckSeed derives the spec for seed and checks it. The corpus convention:
// seed k of an N-trace run is simply k, so `mdacheck -seed k` reproduces any
// corpus failure exactly.
func CheckSeed(seed uint64, opt Options) *Failure {
	return CheckSpec(SpecForSeed(seed), opt)
}
