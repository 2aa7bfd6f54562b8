package check

import (
	"fmt"
	"slices"
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

// Spec is a conformance case's generator spec: GenSpec (one core running
// the harness's own patterns), MCSpec (contended cores) or RequestSpec
// (request workloads). Each derives from a seed and reproduces with one
// mdacheck command.
type Spec interface {
	fmt.Stringer
	// Repro returns the copy-pasteable mdacheck command for the case.
	Repro() string
	// rig returns the machine parameters the case is checked on.
	rig() Rig
	// withFaults returns the spec with its fault bit set to on.
	withFaults(on bool) Spec
	// title heads the case's failure report.
	title() string
}

// Rig holds the machine parameters a case is checked on. Generated specs
// derive one; hand-written streams may use the zero Rig.
type Rig struct {
	Seed       uint64 // fault-injection seed source
	CfgVariant int    // core.SmallConfig variant (0 roomy, 1 tight)
	Faults     bool   // inject transient write faults (see Options.Faults)
}

// Failure describes a failing seed: its spec (with the fault setting the
// check ran under), the (possibly shrunk) core-tagged schedule and the
// violations it produces.
type Failure struct {
	Spec       Spec
	Cores      int
	Ops        []MCOp // shrunk schedule (or full schedule with Options.NoShrink)
	Shrunk     bool
	Violations []Violation

	// ReproFlags are mdacheck flags beyond the spec's own that the check
	// ran under, such as "-designs all -faults off". The checks leave it
	// empty; the mdacheck command fills it from its flags. Repro appends it.
	ReproFlags string
}

// Repro returns the copy-pasteable command that reproduces this failure.
func (f *Failure) Repro() string { return strings.TrimSpace(f.Spec.Repro() + " " + f.ReproFlags) }

// CoresTouched returns how many distinct cores the schedule spans — a shrunk
// witness for a genuine cross-core bug must touch at least two.
func (f *Failure) CoresTouched() int {
	seen := make(map[int]bool)
	for _, mo := range f.Ops {
		seen[mo.Core] = true
	}
	return len(seen)
}

// String renders the failure report: spec, repro line, violations, and the
// trace (one core) or schedule (several).
func (f *Failure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.Spec.title(), f.Spec)
	fmt.Fprintf(&b, "reproduce with: %s\n", f.Repro())
	for _, v := range f.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	label, touched := "trace", ""
	if f.Cores > 1 {
		label, touched = "schedule", fmt.Sprintf(", %d cores touched", f.CoresTouched())
	}
	if f.Shrunk {
		label = "shrunk " + label
	}
	fmt.Fprintf(&b, "%s (%d ops%s):\n", label, len(f.Ops), touched)
	for i, mo := range f.Ops {
		fmt.Fprintf(&b, "  %3d: core%d %v", i, mo.Core, mo.Op)
		if mo.Op.Kind == isa.Store {
			fmt.Fprintf(&b, " value=%d", mo.Op.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// designsFor returns opt.Designs filtered for applicability to the streams:
// the row-only baseline is dropped when any stream contains column ops.
func designsFor(streams [][]isa.Op, opt Options) []core.Design {
	ds := opt.Designs
	if ds == nil {
		ds = PaperDesigns
	}
	hasCol := false
	for _, ops := range streams {
		for _, op := range ops {
			hasCol = hasCol || op.Orient == isa.Col
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

// faults resolves the effective fault setting for a case whose rig asks
// for specFaults.
func (o Options) faults(specFaults bool) bool {
	switch o.Faults {
	case FaultOff:
		return false
	case FaultOn:
		return true
	}
	return specFaults
}

// Resolve returns spec as a check runs it: with the fault bit that o.Faults
// resolves its own to.
func (o Options) Resolve(spec Spec) Spec { return spec.withFaults(o.faults(spec.rig().Faults)) }

// CheckStreams runs the per-core streams (core c executes streams[c]) on
// every applicable design and returns all invariant violations (empty ⇒ the
// case conforms). One stream checks a single-core machine; several check
// private L1s contending over a coherent shared L2/LLC.
func CheckStreams(streams [][]isa.Op, rig Rig, opt Options) []Violation {
	var out []Violation
	for _, d := range designsFor(streams, opt) {
		out = append(out, checkDesign(d, streams, rig, opt)...)
	}
	return out
}

// checkDesign runs one design over the streams and checks every invariant:
// per-load oracle values (via a shared reference model applied in true
// global issue order), the drained final memory image in both directions,
// and per-core plus per-level metric conservation identities.
func checkDesign(d core.Design, streams [][]isa.Op, rig Rig, opt Options) []Violation {
	var vio []Violation
	add := func(kind, format string, args ...interface{}) {
		if len(vio) < maxViolationsPerDesign {
			vio = append(vio, Violation{Design: d, Kind: kind, Msg: fmt.Sprintf(format, args...)})
		}
	}

	faults := opt.faults(rig.Faults)
	cfg := core.SmallConfig(d, rig.CfgVariant)
	cfg.Cores = len(streams)
	cfg.MaxCycles = checkMaxCycles
	if faults {
		cfg.Mem.WriteFailProb = 0.05
		cfg.Mem.FaultSeed = rig.Seed ^ 0xfa017
	}
	m, err := core.Build(cfg)
	if err != nil {
		add("run-error", "build: %v", err)
		return vio
	}

	// Invariant 1 — load values. One reference model is shared by all cores
	// and advanced from each CPU's OnIssue hook, i.e. in the machine's true
	// global issue order (program order on one core). The overlap-ordering
	// rule serializes conflicting ops machine-wide (a conflicting op cannot
	// issue until the in-flight op completes), and non-conflicting ops touch
	// disjoint words, so the reference value attached to each load at issue
	// is exact. OnLoad then compares the completed value against that
	// annotation. This single check also subsumes MSHR per-address ordering:
	// any reordering that lets a load bypass an older same-word store
	// surfaces as a value mismatch.
	ref := NewRefModel()
	for _, cpu := range m.CPUs {
		who := cpu.Name()
		cpu.OnIssue = func(op isa.Op) isa.Op {
			v := ref.Apply(op)
			if op.Kind == isa.Load {
				op.Value = v
			}
			return op
		}
		cpu.OnLoad = func(op isa.Op, value uint64) {
			if value != op.Value {
				add("load-value", "%s: %v returned %d, want %d", who, op, value, op.Value)
			}
		}
	}
	traces := make([]isa.TraceReader, len(streams))
	for c, s := range streams {
		traces[c] = isa.NewSliceTrace(s)
	}
	res, err := m.RunTraces(traces...)
	if err != nil {
		add("run-error", "%v", err)
		return vio
	}

	// Invariant 2 — final memory image after a full drain, both directions:
	// every reference word must be in memory (lost write-backs, lost dirty
	// bits, dropped invalidations) and every non-zero memory word must be in
	// the reference (ghost writes).
	m.DrainAll()
	final := ref.Final()
	store := m.Memory.Store()
	addrs := make([]uint64, 0, len(final))
	for addr := range final {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs) // a fixed report order for a given failure
	for _, addr := range addrs {
		if got, want := store.ReadWord(addr), final[addr]; got != want {
			add("final-image", "memory[%#x] = %d after drain, want %d", addr, got, want)
		}
	}
	store.ForEachWord(func(addr, v uint64) {
		if _, ok := final[addr]; !ok {
			add("ghost-write", "memory[%#x] = %d, reference never wrote it", addr, v)
		}
	})

	// Invariant 3 — conservation identities over the obs snapshot, per core
	// and per level: each core retires exactly its stream, and every level
	// (the private L1s plus the shared levels) satisfies the accounting
	// identities. Counter names come from the built machine.
	snap := res.Metrics
	counter := func(name string) uint64 {
		v, _ := snap.Counter(name)
		return v
	}
	total := 0
	for c, cpu := range m.CPUs {
		total += len(streams[c])
		name := cpu.Name() + ".ops"
		if got := counter(name); got != uint64(len(streams[c])) {
			add("metrics", "%s = %d, want %d", name, got, len(streams[c]))
		}
	}
	if got := snap.SumCounters(".ops"); got < uint64(total) {
		add("metrics", "sum of per-core ops %d < total scheduled ops %d", got, total)
	}
	for _, l := range m.Levels {
		lvl := strings.ToLower(l.Stats().Name)
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
	if !faults {
		if f := counter("mem.write_retries"); f != 0 {
			add("metrics", "write retries %d with fault injection off", f)
		}
	}
	return vio
}

// checkCase checks one case's per-core streams and — on failure — shrinks
// the core-tagged schedule to a locally-minimal failing witness. Returns nil
// when every invariant holds.
func checkCase(spec Spec, streams [][]isa.Op, opt Options) *Failure {
	spec = opt.Resolve(spec)
	rig, cores := spec.rig(), len(streams)
	vio := CheckStreams(streams, rig, opt)
	if len(vio) == 0 {
		return nil
	}
	f := &Failure{Spec: spec, Cores: cores, Ops: FlattenMC(streams), Violations: vio}
	if !opt.NoShrink {
		f.Ops = ShrinkMCOps(f.Ops, func(cand []MCOp) bool {
			return len(CheckStreams(SplitMC(cand, cores), rig, opt)) > 0
		})
		f.Shrunk = true
		f.Violations = CheckStreams(SplitMC(f.Ops, cores), rig, opt)
	}
	return f
}

// CheckSpec generates the single-core trace for spec and checks it,
// shrinking it on failure. Returns nil when every invariant holds.
func CheckSpec(spec GenSpec, opt Options) *Failure {
	return checkCase(spec, [][]isa.Op{Generate(spec)}, opt)
}
