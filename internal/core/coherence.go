package core

import (
	"mdacache/internal/isa"
	"mdacache/internal/obs"
)

// This file is the multi-core glue (DESIGN §11): the snoop hub that keeps N
// private L1 caches coherent above a shared level, the per-core backend
// ports, and the cross-core issue-ordering group. Single-core machines use
// none of it — Build wires the classic direct L1→L2 chain, bit-identical to
// the pre-multi-core engine.
//
// The protocol is an idealized MSI over the existing functional substrate:
//
//   - remote read (a fill requested by any core): every other L1 writes
//     back its dirty words overlapping the requested line (M→S downgrade),
//     so the shared level — and the fill's install-time Peek — observe them;
//   - remote write (a store applying in any L1): every other L1 flushes and
//     invalidates its copies containing a written word (S/M→I). Invalidation
//     is line-granular — writing one word invalidates whole containing lines
//     elsewhere — which is exactly the false-sharing cost the conformance
//     conflict patterns measure.
//
// Snoop state changes are timing-idealized: they apply at the triggering
// access's cycle (bandwidth contention is modeled by the shared level's
// per-set arbitration, not by snoop latency), and they run synchronously
// inside event dispatch, so the cross-core interleaving is exactly the event
// wheel's deterministic (cycle, coreID, seq) order.

// snooper is the coherence interface a private L1 exposes to the hub.
// Cache1P and Cache2P both implement it.
type snooper interface {
	Backend

	// snoopFlush writes back the cache's dirty words overlapping line (a
	// remote core is reading it), leaving copies resident but clean.
	// Returns the number of lines flushed.
	snoopFlush(at uint64, line isa.LineID) int

	// snoopInvalidate flushes and invalidates every local copy containing a
	// masked word of line (a remote core wrote those words). Returns the
	// number of copies invalidated.
	snoopInvalidate(at uint64, line isa.LineID, mask uint8) int

	// peekDirty overlays the cache's own dirty words of line onto data —
	// Peek without the recursive descent (the hub supplies the below view).
	peekDirty(line isa.LineID, data *[isa.WordsPerLine]uint64)
}

// snoopHub connects the private L1s to the shared level below them.
type snoopHub struct {
	below Backend
	l1s   []snooper

	// breakCoherence skips the store snoop-invalidate (testing-only; see
	// Config.BreakSnoopCoherence).
	breakCoherence bool

	// SnoopFlushes counts lines written back because a remote core read
	// them; SnoopInvalidates counts copies invalidated because a remote
	// core wrote them.
	SnoopFlushes     uint64
	SnoopInvalidates uint64
}

// Instrument publishes the hub's counters.
func (h *snoopHub) Instrument(reg *obs.Registry, _ *obs.Tracer) {
	reg.Counter("coherence.snoop_flushes", &h.SnoopFlushes)
	reg.Counter("coherence.snoop_invalidates", &h.SnoopInvalidates)
}

// fill snoops the sibling L1s (remote-read downgrade) and forwards the fill
// to the shared level. The flushed writebacks land below before the Fill at
// the same cycle, honoring Backend's ordering contract.
func (h *snoopHub) fill(at uint64, core int, line isa.LineID, done func(uint64, *[isa.WordsPerLine]uint64)) {
	for i, l1 := range h.l1s {
		if i != core {
			h.SnoopFlushes += uint64(l1.snoopFlush(at, line))
		}
	}
	h.below.Fill(at, line, done)
}

// storeSnoop invalidates the written words' copies in every sibling L1.
// Called by the writing L1's onWrite hook after the store applied locally.
func (h *snoopHub) storeSnoop(at uint64, core int, line isa.LineID, mask uint8) {
	if h.breakCoherence {
		return
	}
	for i, l1 := range h.l1s {
		if i != core {
			h.SnoopInvalidates += uint64(l1.snoopInvalidate(at, line, mask))
		}
	}
}

// peek overlays every L1's dirty words on the shared levels' view. With
// coherence intact a dirty word lives in at most one cache (stores
// invalidate remote copies), so overlay order cannot matter; with
// breakCoherence the fixed core order keeps even broken runs deterministic.
func (h *snoopHub) peek(line isa.LineID) [isa.WordsPerLine]uint64 {
	data := h.below.Peek(line)
	for _, l1 := range h.l1s {
		l1.peekDirty(line, &data)
	}
	return data
}

// hubPort is the Backend one core's L1 sees: fills and peeks route through
// the hub (which snoops the sibling L1s); writebacks pass straight down.
type hubPort struct {
	hub  *snoopHub
	core int
}

// Fill implements Backend.
func (p *hubPort) Fill(at uint64, line isa.LineID, done func(uint64, *[isa.WordsPerLine]uint64)) {
	p.hub.fill(at, p.core, line, done)
}

// Writeback implements Backend.
func (p *hubPort) Writeback(at uint64, line isa.LineID, mask uint8, data [isa.WordsPerLine]uint64) {
	p.hub.below.Writeback(at, line, mask, data)
}

// Peek implements Backend. The hub view includes every sibling's dirty
// words, so an L1 latching fill data at install time can never observe a
// value staler than a store another core has already retired.
func (p *hubPort) Peek(line isa.LineID) [isa.WordsPerLine]uint64 {
	return p.hub.peek(line)
}

// storeSnoop is the L1's onWrite hook target, pre-bound to this core so the
// hot store path carries no per-store closure.
func (p *hubPort) storeSnoop(at uint64, line isa.LineID, mask uint8) {
	p.hub.storeSnoop(at, p.core, line, mask)
}

// coreGroup makes the §IV-B overlap-ordering rule global across cores: no
// two in-flight ops anywhere in the machine may overlap in words with a
// store on either side. Conflicting ops therefore serialize in issue order,
// which is what makes a shared reference model replayed in issue order an
// exact value oracle for every interleaving (internal/check).
type coreGroup struct {
	cpus []*CPU
}

// conflicts checks op against every core's in-flight window and returns
// the first in-flight op it conflicts with, or nil.
func (g *coreGroup) conflicts(op isa.Op) *inflightOp {
	for _, c := range g.cpus {
		if e := c.windowConflicts(op); e != nil {
			return e
		}
	}
	return nil
}

// pumpAll retries every core's issue loop in ascending core-ID order — the
// fixed cross-core wake rule that keeps interleavings bit-reproducible.
// pump's reentrancy guard makes the nested self-pump a no-op.
func (g *coreGroup) pumpAll() {
	for _, c := range g.cpus {
		c.pump()
	}
}
