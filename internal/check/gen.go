package check

import (
	"fmt"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// Pattern selects the access-pattern family a generated trace draws from.
// Each family stresses a different hazard: streams stress prefetch and MSHR
// ordering, transposes stress duplicate coherence (both orientations of the
// same tiles are live), conflict traces stress eviction and write-back, and
// mixed traces combine all of them.
type Pattern int

const (
	// PatMixed interleaves all other patterns' moves within one trace.
	PatMixed Pattern = iota
	// PatRowStream is a unit-stride row sweep (the conventional case).
	PatRowStream
	// PatColStream is a strided column sweep.
	PatColStream
	// PatTranspose writes tiles in one orientation and reads them back in
	// the other — the canonical duplicate-coherence workload.
	PatTranspose
	// PatConflict hammers overlapping row/column lines of a handful of
	// tiles with mixed scalar/vector reads and writes.
	PatConflict

	numPatterns
)

func (p Pattern) String() string {
	switch p {
	case PatMixed:
		return "mixed"
	case PatRowStream:
		return "rowstream"
	case PatColStream:
		return "colstream"
	case PatTranspose:
		return "transpose"
	case PatConflict:
		return "conflict"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// GenSpec fully determines a generated trace (and, via CfgVariant/Faults,
// the machine configurations it is checked on). Everything derives from the
// top-level seed, so a one-line repro only needs that seed.
type GenSpec struct {
	Seed       uint64
	Pattern    Pattern
	Ops        int  // number of ops to generate
	Tiles      int  // size of the touched footprint, in 512-byte tiles
	RowOnly    bool // restrict to Row orientation (covers design 1P1L)
	CfgVariant int  // core.SmallConfig variant (0 roomy, 1 tight)
	Faults     bool // enable transient-fault injection during checking
}

// Repro implements Spec.
func (s GenSpec) Repro() string { return fmt.Sprintf("mdacheck -seed %#x", s.Seed) }

func (s GenSpec) rig() Rig { return Rig{Seed: s.Seed, CfgVariant: s.CfgVariant, Faults: s.Faults} }

func (s GenSpec) withFaults(on bool) Spec { s.Faults = on; return s }

func (s GenSpec) title() string { return "conformance failure" }

func (s GenSpec) String() string {
	o := "row+col"
	if s.RowOnly {
		o = "row-only"
	}
	return fmt.Sprintf("seed=%#x pattern=%s ops=%d tiles=%d %s cfg=%d faults=%v",
		s.Seed, s.Pattern, s.Ops, s.Tiles, o, s.CfgVariant, s.Faults)
}

// SpecForSeed derives a full trace spec from a bare seed. The derivation is
// pure splitmix64, so the corpus `seed = 0..N` covers every pattern, both
// orientation regimes, both config variants and both fault settings without
// any further bookkeeping. Seed k of an N-seed corpus is simply k, so
// `mdacheck -seed k` reproduces any corpus failure exactly.
func SpecForSeed(seed uint64) GenSpec {
	r := sim.NewRNG(seed ^ 0x5eedc0de)
	return GenSpec{
		Seed:       seed,
		Pattern:    Pattern(r.Intn(int(numPatterns))),
		Ops:        64 + r.Intn(192),
		Tiles:      1 + r.Intn(12),
		RowOnly:    r.Intn(4) == 0, // every 4th trace exercises 1P1L too
		CfgVariant: r.Intn(2),
		Faults:     r.Intn(2) == 0,
	}
}

// genState carries the generator's mutable state: the RNG, the footprint,
// and a monotonically increasing store payload so every store writes a
// globally unique value (a stale read can therefore never masquerade as a
// correct one).
type genState struct {
	rng     *sim.RNG
	spec    GenSpec
	tiles   []uint64 // tile base addresses of the footprint
	nextVal uint64
	pc      uint32
	ops     []isa.Op
}

// Generate produces the deterministic trace for spec. All addresses are
// word-aligned and vector bases canonical; orientation is forced to Row when
// spec.RowOnly is set.
func Generate(spec GenSpec) []isa.Op {
	g := &genState{
		rng:  sim.NewRNG(spec.Seed),
		spec: spec,
		// Store values start high so they can never collide with the zero
		// default or with vector-store word synthesis (Value+i, i<8).
		nextVal: 1 << 32,
	}
	// Footprint: spec.Tiles distinct tiles drawn from a 64-tile window so
	// small caches see real contention. Tile bases are 512-byte aligned.
	seen := make(map[uint64]bool)
	for len(g.tiles) < spec.Tiles {
		base := uint64(g.rng.Intn(64)) * isa.TileSize
		if !seen[base] {
			seen[base] = true
			g.tiles = append(g.tiles, base)
		}
	}
	for len(g.ops) < spec.Ops {
		p := spec.Pattern
		if p == PatMixed {
			p = Pattern(1 + g.rng.Intn(int(numPatterns)-1))
		}
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
	}
	return g.ops[:spec.Ops]
}

func (g *genState) orient(want isa.Orient) isa.Orient {
	if g.spec.RowOnly {
		return isa.Row
	}
	return want
}

func (g *genState) tile() uint64 { return g.tiles[g.rng.Intn(len(g.tiles))] }

func (g *genState) gap() uint32 { return uint32(g.rng.Intn(4)) }

func (g *genState) emit(op isa.Op) {
	op.PC = g.pc
	op.Gap = g.gap()
	g.ops = append(g.ops, op)
}

func (g *genState) value() uint64 {
	// Stride 16 keeps vector-store synthesis (Value+i, i<8) disjoint
	// between stores.
	v := g.nextVal
	g.nextVal += 16
	return v
}

// stream emits a short strided sweep of vector ops along one orientation —
// the bread-and-butter pattern the stride prefetcher keys on, with a stable
// PC so the predictor tables actually train.
func (g *genState) stream(o isa.Orient) {
	o = g.orient(o)
	g.pc++
	t := g.tile()
	n := 2 + g.rng.Intn(int(isa.LinesPerTile)-1)
	start := g.rng.Intn(int(isa.LinesPerTile) - n + 1)
	store := g.rng.Intn(3) == 0
	for i := 0; i < n; i++ {
		line := lineInTile(t, uint(start+i), o)
		op := isa.Op{Addr: line.Base, Orient: o, Vector: true}
		if store {
			op.Kind = isa.Store
			op.Value = g.value()
		}
		g.emit(op)
	}
}

// transpose writes a tile with vectors of one orientation and immediately
// reads it back with scalars and vectors of the other — both orientations of
// the same lines become live in the hierarchy, so any lapse in duplicate
// coherence shows up as a stale value here.
func (g *genState) transpose() {
	wo := g.orient(isa.Orient(g.rng.Intn(2)))
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

// conflict emits a burst of random scalar/vector loads and stores confined
// to one or two tiles, in both orientations — maximal line overlap, frequent
// same-address reuse, and plenty of partially-dirty write-backs.
func (g *genState) conflict() {
	n := 4 + g.rng.Intn(12)
	for i := 0; i < n; i++ {
		g.pc++
		t := g.tile()
		o := g.orient(isa.Orient(g.rng.Intn(2)))
		line := lineInTile(t, uint(g.rng.Intn(int(isa.LinesPerTile))), o)
		op := isa.Op{Orient: o}
		if g.rng.Intn(2) == 0 {
			op.Vector = true
			op.Addr = line.Base
		} else {
			op.Addr = line.WordAddr(uint(g.rng.Intn(int(isa.WordsPerLine))))
		}
		if g.rng.Intn(2) == 0 {
			op.Kind = isa.Store
			op.Value = g.value()
		}
		g.emit(op)
	}
}

// lineInTile returns line idx (0..7) of the tile at base, in orientation o.
func lineInTile(base uint64, idx uint, o isa.Orient) isa.LineID {
	if o == isa.Row {
		return isa.LineID{Base: base + uint64(idx)*isa.LineSize, Orient: isa.Row}
	}
	return isa.LineID{Base: base + uint64(idx)*isa.WordSize, Orient: isa.Col}
}
