package core

import (
	"fmt"
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// setWays writes set 0's tags and replacement state: way i is valid iff
// valid[i], last used at 100+i and at the SRRIP eviction threshold.
func setWays(c *Cache1P, valid ...bool) {
	for i, v := range valid {
		c.tags[i] = 0
		if v {
			c.tags[i] = uint64(i+1)*isa.LineSize | tagValid
		}
		c.meta[i] = wayMeta{lastUse: uint64(100 + i), rrpv: srripMax}
	}
}

// TestVictimPrefersInvalidWays drives victim() directly over hand-built
// sets: invalid ways must always win, regardless of policy and of how
// attractive the valid ways look to the policy.
func TestVictimPrefersInvalidWays(t *testing.T) {
	for _, repl := range []ReplPolicy{ReplLRU, ReplRandom, ReplSRRIP} {
		repl := repl
		t.Run(repl.String(), func(t *testing.T) {
			_, c := cacheWithRepl(t, repl)
			// All-invalid set (a fresh cache): first way.
			setWays(c, false, false, false, false)
			if got := c.victim(0); got != 0 {
				t.Errorf("all-invalid: picked way %d, want 0", got)
			}
			// Mixed: the single invalid way wins even though way 0 is the
			// policy's natural pick.
			setWays(c, true, true, false, true)
			c.meta[0].lastUse = 1 // LRU's pick if only valid ways counted
			if got := c.victim(0); got != 2 {
				t.Errorf("mixed: picked way %d, want invalid way 2", got)
			}
		})
	}
}

// TestVictimLRUTieBreak pins the deterministic tie-break: equal lastUse
// resolves to the lowest way (strict less-than scan from way 0).
func TestVictimLRUTieBreak(t *testing.T) {
	_, c := cacheWithRepl(t, ReplLRU)
	setWays(c, true, true, true, true)
	for i := 0; i < 4; i++ {
		c.meta[i].lastUse = 7 // all equal
	}
	if got := c.victim(0); got != 0 {
		t.Errorf("tie: picked way %d, want 0", got)
	}
	// A strictly older way beats the tie group wherever it sits.
	c.meta[2].lastUse = 3
	if got := c.victim(0); got != 2 {
		t.Errorf("older way: picked way %d, want 2", got)
	}
}

// TestVictimSRRIPAges pins the aging loop: when no way is at the eviction
// threshold, all ways age together until one is, and the scan restarts from
// way 0 — so the first way to reach srripMax wins.
func TestVictimSRRIPAges(t *testing.T) {
	_, c := cacheWithRepl(t, ReplSRRIP)
	setWays(c, true, true, true, true)
	c.meta[0].rrpv, c.meta[1].rrpv, c.meta[2].rrpv, c.meta[3].rrpv = 0, 2, 1, 2
	v := c.victim(0)
	// Ways 1 and 3 reach srripMax after one aging pass; way 1 is scanned
	// first.
	if v != 1 {
		t.Fatalf("picked way %d, want 1", v)
	}
	if c.meta[0].rrpv != 1 || c.meta[2].rrpv != 2 {
		t.Errorf("aging: rrpv = [%d _ %d _], want [1 _ 2 _]", c.meta[0].rrpv, c.meta[2].rrpv)
	}
}

// TestSingleWayCache runs every policy on a direct-mapped (1-way) cache:
// with no choice to make, all policies must behave identically — every
// conflicting fill evicts, every re-reference of the resident line hits.
func TestSingleWayCache(t *testing.T) {
	for _, repl := range []ReplPolicy{ReplLRU, ReplRandom, ReplSRRIP} {
		repl := repl
		t.Run(repl.String(), func(t *testing.T) {
			q := &sim.EventQueue{}
			c, err := NewCache1P(q, CacheParams{
				Name: "L1", SizeBytes: 1 * KB, Assoc: 1,
				TagLat: 2, DataLat: 2, MSHRs: 4, Repl: repl,
			}, true, newStub(q))
			if err != nil {
				t.Fatal(err)
			}
			a, b := conflictLine(c, 0), conflictLine(c, 1)
			access(t, q, c, vectorLoad(a)) // miss, fill
			access(t, q, c, vectorLoad(a)) // hit
			access(t, q, c, vectorLoad(b)) // conflict: must evict a
			access(t, q, c, vectorLoad(a)) // miss again
			if c.stats.Hits != 1 || c.stats.Misses != 3 {
				t.Errorf("hits=%d misses=%d, want 1/3", c.stats.Hits, c.stats.Misses)
			}
			if c.stats.Evictions != 2 {
				t.Errorf("evictions=%d, want 2", c.stats.Evictions)
			}
		})
	}
}

// TestRandomReplacementDeterministic pins that random replacement is seeded,
// not time-dependent: two identical caches given the same access sequence
// evict identically (the determinism contract every sweep and checkpoint
// depends on).
func TestRandomReplacementDeterministic(t *testing.T) {
	resident := func() string {
		q, c := cacheWithRepl(t, ReplRandom)
		for i := uint64(0); i < 24; i++ {
			access(t, q, c, vectorLoad(conflictLine(c, i%12)))
		}
		out := ""
		for i := uint64(0); i < 12; i++ {
			if c.find(conflictLine(c, i)) != nil {
				out += fmt.Sprintf("%d,", i)
			}
		}
		return out
	}
	if a, b := resident(), resident(); a != b {
		t.Fatalf("random replacement diverged: %q vs %q", a, b)
	}
}

// TestSRRIPInsertAndPromoteValues pins the 2-bit protocol constants on real
// fills: lines insert at distance srripInsertRRPV and promote to 0 on hit.
func TestSRRIPInsertAndPromoteValues(t *testing.T) {
	q, c := cacheWithRepl(t, ReplSRRIP)
	id := conflictLine(c, 0)
	access(t, q, c, vectorLoad(id))
	l := c.find(id)
	if l == nil || c.meta[l.way].rrpv != srripInsertRRPV {
		t.Fatalf("after fill: line %v, want rrpv %d", l, srripInsertRRPV)
	}
	access(t, q, c, vectorLoad(id))
	if c.meta[l.way].rrpv != 0 {
		t.Fatalf("after hit: rrpv = %d, want 0", c.meta[l.way].rrpv)
	}
}
