package compiler

import (
	"fmt"

	"mdacache/internal/isa"
)

// Target describes the hierarchy a kernel is compiled for.
type Target struct {
	// Logical2D enables column instructions and column vectorization and
	// (with LayoutAuto) the tiled MDA-compliant layout.
	Logical2D bool

	// Layout overrides the automatic layout choice; used by the layout
	// ablation (§IV-C: a 1P1L hierarchy over a 2-D-optimised layout).
	Layout Layout

	// BaseAddr places the first array (default 4 KiB to keep address 0
	// free). Arrays are packed tile-aligned after it.
	BaseAddr uint64
}

// Program is a compiled kernel: arrays placed, references classified and
// annotated, ready to generate its memory-operation trace.
type Program struct {
	Kernel *Kernel
	Target Target

	layout    Layout
	footprint uint64
	nextPC    uint32
}

// Compile lays out the kernel's arrays for the target and assigns static
// instruction ids. The kernel is mutated (array placement) and must not be
// shared across concurrently-running programs.
func Compile(k *Kernel, t Target) (*Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	layout := t.Layout
	if layout == LayoutAuto {
		if t.Logical2D {
			layout = LayoutTiled
		} else {
			layout = LayoutLinear
		}
	}
	base := t.BaseAddr
	if base == 0 {
		base = 4096
	}
	base = (base + isa.TileSize - 1) &^ (isa.TileSize - 1)
	p := &Program{Kernel: k, Target: t, layout: layout}
	for _, a := range k.Arrays {
		sz := a.assignLayout(layout, base)
		sz = (sz + isa.TileSize - 1) &^ (isa.TileSize - 1)
		base += sz
		p.footprint += sz
	}
	// Assign PCs: one static instruction per (nest, stmt, ref).
	pc := uint32(1)
	for ni := range k.Nests {
		for si := range k.Nests[ni].Body {
			for ri := range k.Nests[ni].Body[si].Refs {
				k.Nests[ni].Body[si].Refs[ri].pc = pc
				pc++
			}
		}
	}
	p.nextPC = pc
	return p, nil
}

// Layout reports the layout Compile chose.
func (p *Program) Layout() Layout { return p.layout }

// FootprintBytes returns the total padded array footprint.
func (p *Program) FootprintBytes() uint64 { return p.footprint }

// Trace returns a streaming trace of the program's memory operations.
// Close it if abandoned before exhaustion.
func (p *Program) Trace() *isa.StreamTrace {
	return isa.Stream(func(emit func(isa.Op) bool) {
		g := &gen{p: p, emit: emit}
		g.run()
	})
}

// gen walks the iteration space emitting ops.
type gen struct {
	p       *Program
	emit    func(isa.Op) bool
	stopped bool
	pending uint32   // compute cycles to attach to the next op
	env     []int    // loop index values, one slot per loop of the current nest
	code    nestCode // the current nest, compiled; its storage is reused
}

func (g *gen) out(op isa.Op) {
	if g.stopped {
		return
	}
	op.Gap += g.pending
	g.pending = 0
	if !g.emit(op) {
		g.stopped = true
	}
}

func (g *gen) run() {
	for ni := range g.p.Kernel.Nests {
		if g.stopped {
			return
		}
		g.code.compile(&g.p.Kernel.Nests[ni], g.p.Target.Logical2D)
		g.nest(&g.code)
	}
}

// affine is an Expr resolved against a nest's loops: coefficients index the
// env slice by loop depth instead of naming indices.
type affine struct {
	terms []term
	cnst  int
}

type term struct{ slot, coeff int }

func (a *affine) eval(env []int) int {
	v := a.cnst
	for _, t := range a.terms {
		v += t.coeff * env[t.slot]
	}
	return v
}

// nestCode is a nest compiled for trace generation: bounds and subscripts
// resolved to slots, and each statement's vectorization plan made once.
type nestCode struct {
	bounds [][2]affine // [lo, hi) per loop depth
	stmts  []stmtCode

	// Backing storage for the stmts' refs and the affines' terms, reused
	// from nest to nest so compiling a small nest allocates nothing.
	refs      []refCode
	terms     []term
	enclosing []string
}

type stmtCode struct {
	compute   uint32
	vectorize bool
	refs      []refCode
}

type refCode struct {
	array    *Array
	row, col affine
	pc       uint32
	kind     isa.Kind
	a        analysis
}

// compile resolves n against its own loop indices and plans each statement
// for the innermost loop, replacing c's previous contents. Straight-line
// nests get row-preferring invariant refs (analyzeOrientStatic).
func (c *nestCode) compile(n *Nest, logical2D bool) {
	c.bounds, c.stmts, c.refs, c.terms = c.bounds[:0], c.stmts[:0], c.refs[:0], c.terms[:0]
	c.enclosing = c.enclosing[:0]
	for _, l := range n.Loops {
		c.enclosing = append(c.enclosing, l.Index)
		c.bounds = append(c.bounds, [2]affine{c.resolve(l.Lo, n.Loops), c.resolve(l.Hi, n.Loops)})
	}
	for _, s := range n.Body {
		var plan stmtPlan
		if len(n.Loops) > 0 {
			inner := len(n.Loops) - 1
			plan = planStmt(s, n.Loops[inner].Index, c.enclosing[:inner], logical2D)
		}
		for ri, ref := range s.Refs {
			rc := refCode{array: ref.Array, row: c.resolve(ref.Row, n.Loops), col: c.resolve(ref.Col, n.Loops), pc: ref.pc, kind: isa.Load}
			if ref.Write {
				rc.kind = isa.Store
			}
			if plan.refs != nil {
				rc.a = plan.refs[ri]
			} else {
				rc.a = analysis{class: refInvariant, orient: analyzeOrientStatic(ref, logical2D)}
			}
			c.refs = append(c.refs, rc)
		}
		c.stmts = append(c.stmts, stmtCode{compute: uint32(s.Compute), vectorize: plan.vectorize})
	}
	// Slice the refs only now: appends above may have moved c.refs.
	first := 0
	for si, s := range n.Body {
		c.stmts[si].refs = c.refs[first : first+len(s.Refs) : first+len(s.Refs)]
		first += len(s.Refs)
	}
}

// resolve binds e's indices to loop depths. An index that names no loop of
// the nest evaluates to 0, as Expr.Eval does for an unbound name. The terms
// live in c.terms; a later append that moves c.terms leaves earlier affines
// on the old array, whose entries are never rewritten while c is in use.
func (c *nestCode) resolve(e Expr, loops []Loop) affine {
	start := len(c.terms)
	for name, coeff := range e.coeffs {
		for d := range loops {
			if loops[d].Index == name {
				c.terms = append(c.terms, term{slot: d, coeff: coeff})
				break
			}
		}
	}
	return affine{terms: c.terms[start:len(c.terms):len(c.terms)], cnst: e.cnst}
}

func (g *gen) nest(n *nestCode) {
	if cap(g.env) < len(n.bounds) {
		g.env = make([]int, len(n.bounds))
	}
	g.env = g.env[:len(n.bounds)]
	if len(n.bounds) == 0 {
		// Straight-line: every ref executes once, loads before stores.
		for si := range n.stmts {
			s := &n.stmts[si]
			g.pending += s.compute
			g.invariantRefs(s, isa.Load)
			g.invariantRefs(s, isa.Store)
		}
		return
	}
	g.loops(n, 0)
}

// invariantRefs emits the statement's invariant refs of the given kind at
// the current env.
func (g *gen) invariantRefs(s *stmtCode, kind isa.Kind) {
	for ri := range s.refs {
		r := &s.refs[ri]
		if r.a.class == refInvariant && r.kind == kind {
			g.scalarRef(r)
		}
	}
}

// loops recurses over the outer loops; the innermost level runs the
// vectorization plan.
func (g *gen) loops(n *nestCode, depth int) {
	if g.stopped {
		return
	}
	lo, hi := n.bounds[depth][0].eval(g.env), n.bounds[depth][1].eval(g.env)
	if depth == len(n.bounds)-1 {
		g.innermost(n, depth, lo, hi)
		return
	}
	for v := lo; v < hi && !g.stopped; v++ {
		g.env[depth] = v
		g.loops(n, depth+1)
	}
}

// innermost executes one instance of the innermost loop (index slot v):
// hoisted loads, peel/vector/tail per statement plan, hoisted stores.
func (g *gen) innermost(n *nestCode, v, lo, hi int) {
	if hi <= lo {
		return
	}
	env := g.env

	// Hoisted loads (invariant reads) once per instance.
	env[v] = lo
	for si := range n.stmts {
		g.invariantRefs(&n.stmts[si], isa.Load)
	}

	for si := range n.stmts {
		s := &n.stmts[si]
		if s.vectorize {
			x := lo
			for x < hi && x%8 != 0 {
				g.scalarIter(s, v, x)
				x++
			}
			for x+8 <= hi {
				g.vectorChunk(s, v, x)
				x += 8
			}
			for x < hi {
				g.scalarIter(s, v, x)
				x++
			}
		} else {
			for x := lo; x < hi && !g.stopped; x++ {
				g.scalarIter(s, v, x)
			}
		}
	}

	// Hoisted stores (invariant writes) once per instance.
	env[v] = lo
	for si := range n.stmts {
		g.invariantRefs(&n.stmts[si], isa.Store)
	}
}

// scalarIter emits the statement's non-invariant refs for iteration x.
func (g *gen) scalarIter(s *stmtCode, v, x int) {
	g.env[v] = x
	g.pending += s.compute
	for ri := range s.refs {
		if r := &s.refs[ri]; r.a.class != refInvariant {
			g.scalarRef(r)
		}
	}
}

// vectorChunk emits the statement's refs for iterations [x, x+8).
func (g *gen) vectorChunk(s *stmtCode, v, x int) {
	g.pending += s.compute
	for ri := range s.refs {
		r := &s.refs[ri]
		switch r.a.class {
		case refInvariant:
			continue
		case refRowStream, refColStream:
			g.vectorRef(r, v, x)
		default:
			panic("compiler: irregular ref in vectorized statement")
		}
	}
}

// vectorRef emits the vector op(s) covering elements x+offset .. x+offset+7
// along the streaming dimension. Aligned accesses are one line; offset
// (unaligned) loads cover two.
func (g *gen) vectorRef(r *refCode, v, x int) {
	env := g.env
	// Element coordinates at the chunk start.
	env[v] = x
	first := r.array.Addr(r.row.eval(env), r.col.eval(env))
	env[v] = x + 7
	last := r.array.Addr(r.row.eval(env), r.col.eval(env))
	env[v] = x

	orient := r.a.orient
	lineA := isa.LineOf(first, orient)
	lineB := isa.LineOf(last, orient)
	g.out(isa.Op{Addr: lineA.Base, PC: r.pc, Kind: r.kind, Orient: orient, Vector: true})
	if lineB != lineA {
		if r.kind == isa.Store {
			panic("compiler: unaligned vector store should have been rejected by planStmt")
		}
		g.out(isa.Op{Addr: lineB.Base, PC: r.pc, Kind: r.kind, Orient: orient, Vector: true})
	}
}

// scalarRef emits one scalar op for the reference at the current env.
func (g *gen) scalarRef(r *refCode) {
	addr := r.array.Addr(r.row.eval(g.env), r.col.eval(g.env))
	g.out(isa.Op{Addr: addr, PC: r.pc, Kind: r.kind, Orient: r.a.orient})
}

// analyzeOrientStatic derives the preference for straight-line refs: row
// unless the reference clearly walks a column (constant col, which we cannot
// tell statically) — per §IV-B(a) undiscerned preferences are row.
func analyzeOrientStatic(_ Ref, _ bool) isa.Orient { return isa.Row }

// Mix is the Fig. 10 access-type distribution, by operation count and by
// data volume (scalar ops move 8 bytes, vector ops 64).
type Mix struct {
	Ops   [2][2]uint64 // [orient][scalar=0 / vector=1]
	Bytes [2][2]uint64
}

// Total returns total bytes.
func (m *Mix) Total() uint64 {
	var t uint64
	for o := 0; o < 2; o++ {
		for s := 0; s < 2; s++ {
			t += m.Bytes[o][s]
		}
	}
	return t
}

// Share returns the fraction of data volume in (orient, vector) class.
func (m *Mix) Share(o isa.Orient, vector bool) float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	s := 0
	if vector {
		s = 1
	}
	return float64(m.Bytes[o][s]) / float64(t)
}

// ColShare returns the column fraction of data volume.
func (m *Mix) ColShare() float64 {
	return m.Share(isa.Col, false) + m.Share(isa.Col, true)
}

// MeasureMix drains a fresh trace of the program and tallies the access-type
// distribution.
func (p *Program) MeasureMix() Mix {
	tr := p.Trace()
	defer tr.Close()
	var m Mix
	for {
		op, ok := tr.Next()
		if !ok {
			return m
		}
		s, bytes := 0, uint64(isa.WordSize)
		if op.Vector {
			s, bytes = 1, isa.LineSize
		}
		m.Ops[op.Orient][s]++
		m.Bytes[op.Orient][s] += bytes
	}
}

// String summarises the program.
func (p *Program) String() string {
	return fmt.Sprintf("%s [%s layout, %d arrays, %.1f KiB]",
		p.Kernel.Name, p.layout, len(p.Kernel.Arrays), float64(p.footprint)/1024)
}
