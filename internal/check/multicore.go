package check

import (
	"fmt"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// This file is the multi-core generator of the conformance harness: seeded
// contended per-core op streams over one shared tile footprint, and the
// flattened core-tagged schedule form they shrink in. The checker itself
// (CheckStreams) is shared with the single-core corpus; its one reference
// model, advanced in true global issue order, is an exact per-load value
// oracle even under maximal cross-core contention.

// MCPattern selects the cross-core conflict family a generated workload
// draws from. Each family stresses a different sharing hazard.
type MCPattern int

const (
	// MCMixed gives every core an independent mixed single-core trace over
	// one shared tile footprint — broad-spectrum contention.
	MCMixed MCPattern = iota
	// MCTransposeRace races cores on the same tiles with opposed
	// orientations: even cores write rows and read columns while odd cores
	// write columns and read rows, so every fill crosses a sibling's dirty
	// duplicate — the canonical cross-core duplicate-coherence workload.
	MCTransposeRace
	// MCFalseSharing confines cores to disjoint word offsets of the same
	// lines: no word is ever shared, but line-granular invalidation forces
	// each store to kill the siblings' copies.
	MCFalseSharing
	// MCHammerSet aims every core at tiles that map to one cache set at
	// every shared level (tile stride 16 collides in all three index
	// mappings), saturating that set's arbitration and eviction paths.
	MCHammerSet

	numMCPatterns
)

func (p MCPattern) String() string {
	switch p {
	case MCMixed:
		return "mc-mixed"
	case MCTransposeRace:
		return "mc-transpose-race"
	case MCFalseSharing:
		return "mc-false-sharing"
	case MCHammerSet:
		return "mc-hammer-set"
	}
	return fmt.Sprintf("mc-pattern(%d)", int(p))
}

// MCOp is one op of a flattened multi-core schedule: the op plus the core
// that executes it. Flattened schedules are the unit of shrinking — deleting
// an MCOp preserves every core's internal program order.
type MCOp struct {
	Core int
	Op   isa.Op
}

// MCSpec fully determines a generated multi-core workload. Everything
// derives from (Seed, Cores), so a one-line repro only needs those two.
type MCSpec struct {
	Seed       uint64
	Cores      int
	Pattern    MCPattern
	OpsPerCore int
	Tiles      int  // size of the shared footprint, in tiles
	RowOnly    bool // restrict to Row orientation (covers design 1P1L)
	CfgVariant int  // core.SmallConfig variant (0 roomy, 1 tight)
	Faults     bool // enable transient-fault injection during checking
}

// Repro implements Spec.
func (s MCSpec) Repro() string {
	return fmt.Sprintf("mdacheck -cores %d -seed %#x", s.Cores, s.Seed)
}

func (s MCSpec) rig() Rig { return Rig{Seed: s.Seed, CfgVariant: s.CfgVariant, Faults: s.Faults} }

func (s MCSpec) withFaults(on bool) Spec { s.Faults = on; return s }

func (s MCSpec) title() string { return "multi-core conformance failure" }

func (s MCSpec) String() string {
	o := "row+col"
	if s.RowOnly {
		o = "row-only"
	}
	return fmt.Sprintf("seed=%#x cores=%d pattern=%s ops/core=%d tiles=%d %s cfg=%d faults=%v",
		s.Seed, s.Cores, s.Pattern, s.OpsPerCore, s.Tiles, o, s.CfgVariant, s.Faults)
}

// MCSpecForSeed derives a full multi-core spec from a bare seed and core
// count. Same splitmix64 convention as SpecForSeed: the corpus `seed = 0..N`
// covers every pattern, both orientation regimes, both config variants and
// both fault settings.
func MCSpecForSeed(seed uint64, cores int) MCSpec {
	if cores < 2 {
		cores = 2
	}
	r := sim.NewRNG(seed ^ 0x3c07e5ed)
	return MCSpec{
		Seed:       seed,
		Cores:      cores,
		Pattern:    MCPattern(r.Intn(int(numMCPatterns))),
		OpsPerCore: 32 + r.Intn(96),
		Tiles:      1 + r.Intn(6),
		RowOnly:    r.Intn(4) == 0,
		CfgVariant: r.Intn(2),
		Faults:     r.Intn(2) == 0,
	}
}

// GenerateMC produces the deterministic per-core op streams for spec.
// All cores share one tile footprint (contention is the point); store
// payloads are globally unique across cores so a stale or cross-wired read
// can never masquerade as a correct one.
func GenerateMC(spec MCSpec) [][]isa.Op {
	// Shared footprint, drawn once from the seed so every core contends on
	// the same tiles.
	fr := sim.NewRNG(spec.Seed ^ 0xf007)
	seen := make(map[uint64]bool)
	var tiles []uint64
	for len(tiles) < spec.Tiles {
		base := uint64(fr.Intn(64)) * isa.TileSize
		if !seen[base] {
			seen[base] = true
			tiles = append(tiles, base)
		}
	}

	streams := make([][]isa.Op, spec.Cores)
	for c := 0; c < spec.Cores; c++ {
		g := &genState{
			rng: sim.NewRNG(spec.Seed ^ (0x9e3779b97f4a7c15 * uint64(c+1))),
			spec: GenSpec{
				Seed:    spec.Seed,
				Ops:     spec.OpsPerCore,
				Tiles:   spec.Tiles,
				RowOnly: spec.RowOnly,
			},
			tiles: tiles,
			// Disjoint per-core value ranges keep every store payload
			// globally unique (stride-16 values, ≤128 ops/core ≪ 1<<24).
			nextVal: (1 << 32) + uint64(c)<<24,
		}
		for len(g.ops) < spec.OpsPerCore {
			switch spec.Pattern {
			case MCMixed:
				p := Pattern(1 + g.rng.Intn(int(numPatterns)-1))
				switch p {
				case PatRowStream:
					g.stream(isa.Row)
				case PatColStream:
					g.stream(isa.Col)
				case PatTranspose:
					g.transpose()
				case PatConflict:
					g.conflict()
				}
			case MCTransposeRace:
				g.transposeRace(c)
			case MCFalseSharing:
				g.falseSharing(c, spec.Cores)
			case MCHammerSet:
				g.hammerSet(c)
			}
		}
		streams[c] = g.ops[:spec.OpsPerCore]
	}
	return streams
}

// transposeRace emits one round of the same-tile transpose race: this core
// vector-writes a run of lines in its parity orientation, then reads the
// same tile back in the other orientation — while the opposite-parity cores
// do the mirror image on the very same tiles.
func (g *genState) transposeRace(coreID int) {
	wo := isa.Row
	if coreID%2 == 1 {
		wo = isa.Col
	}
	wo = g.orient(wo)
	ro := g.orient(wo.Other())
	t := g.tile()
	g.pc++
	n := 1 + g.rng.Intn(int(isa.LinesPerTile))
	for i := 0; i < n; i++ {
		line := lineInTile(t, uint(i), wo)
		g.emit(isa.Op{Addr: line.Base, Kind: isa.Store, Value: g.value(), Orient: wo, Vector: true})
	}
	g.pc++
	for i := 0; i < n; i++ {
		line := lineInTile(t, uint(g.rng.Intn(int(isa.LinesPerTile))), ro)
		if g.rng.Intn(2) == 0 {
			g.emit(isa.Op{Addr: line.Base, Orient: ro, Vector: true})
		} else {
			g.emit(isa.Op{Addr: line.WordAddr(uint(g.rng.Intn(int(isa.WordsPerLine)))), Orient: ro})
		}
	}
}

// falseSharing emits scalar traffic confined to this core's word offsets of
// shared row lines: offsets congruent to the core ID modulo min(cores, 8)
// belong to this core (written and read back), any other offset is only ever
// loaded (read-sharing). Every store still invalidates the siblings' whole
// line copy.
func (g *genState) falseSharing(coreID, cores int) {
	mod := cores
	if mod > int(isa.WordsPerLine) {
		mod = int(isa.WordsPerLine)
	}
	t := g.tile()
	idx := uint(g.rng.Intn(int(isa.LinesPerTile)))
	line := lineInTile(t, idx, isa.Row)
	g.pc++
	n := 2 + g.rng.Intn(6)
	for i := 0; i < n; i++ {
		off := uint(g.rng.Intn(int(isa.WordsPerLine)))
		if off%uint(mod) == uint(coreID%mod) {
			// Own word: write it, then read it back.
			g.emit(isa.Op{Addr: line.WordAddr(off), Kind: isa.Store, Value: g.value(), Orient: isa.Row})
			g.emit(isa.Op{Addr: line.WordAddr(off), Orient: isa.Row})
		} else {
			// Sibling's word: read-only sharing.
			g.emit(isa.Op{Addr: line.WordAddr(off), Orient: isa.Row})
		}
	}
}

// hammerSet emits scalar traffic over tiles spaced 16 apart — a stride that
// collides in every design's set mapping — so all cores pile onto one set at
// every shared level. Each core mostly touches its own word of each tile
// (real set contention, not overlap serialization), with occasional loads of
// word 0 for genuine sharing.
func (g *genState) hammerSet(coreID int) {
	depth := 2 + g.rng.Intn(3) // tiles hammered per round, all same-set
	g.pc++
	for j := 0; j < depth; j++ {
		base := uint64(j) * 16 * isa.TileSize
		line := lineInTile(base, uint(g.rng.Intn(int(isa.LinesPerTile))), isa.Row)
		own := line.WordAddr(uint(coreID) % isa.WordsPerLine)
		if g.rng.Intn(2) == 0 {
			g.emit(isa.Op{Addr: own, Kind: isa.Store, Value: g.value(), Orient: isa.Row})
		} else {
			g.emit(isa.Op{Addr: own, Orient: isa.Row})
		}
		if g.rng.Intn(4) == 0 {
			g.emit(isa.Op{Addr: line.WordAddr(0), Orient: isa.Row})
		}
	}
}

// FlattenMC interleaves per-core streams round-robin into one core-tagged
// schedule — the canonical flattened form used for shrinking and reporting.
func FlattenMC(streams [][]isa.Op) []MCOp {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]MCOp, 0, total)
	for i := 0; len(out) < total; i++ {
		for c, s := range streams {
			if i < len(s) {
				out = append(out, MCOp{Core: c, Op: s[i]})
			}
		}
	}
	return out
}

// SplitMC is the inverse of FlattenMC: it separates a flattened schedule
// back into per-core streams (each core's internal order preserved).
func SplitMC(ops []MCOp, cores int) [][]isa.Op {
	streams := make([][]isa.Op, cores)
	for _, mo := range ops {
		if mo.Core >= 0 && mo.Core < cores {
			streams[mo.Core] = append(streams[mo.Core], mo.Op)
		}
	}
	return streams
}

// CheckMCSpec generates the streams for spec and checks them, shrinking
// the flattened schedule to a locally-minimal failing witness on failure.
// Returns nil when every invariant holds.
func CheckMCSpec(spec MCSpec, opt Options) *Failure {
	return checkCase(spec, GenerateMC(spec), opt)
}
